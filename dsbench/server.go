package main

import (
	"fmt"
	"math/rand"
	"sync"

	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/proc"
	"dangsan/internal/workloads"
)

// The proc layer is timed on the paper's apache web-server analog: a
// traced spec-suite run ends with one request loop in which serverClients
// worker threads share one DangSan process, and the benchmark drives every
// request through proc.Thread itself so that each Malloc, StorePtr and
// Free gets a span. Every object is freed, so invalidation and the shared
// allocator (per-thread logs, stat shards, tcmalloc central lists) do the
// work. It is not an end-to-end workload: two threads on a two-CPU host
// made its run time too unsteady to gate (see NOTES.md).
const (
	// serverClients is the number of worker threads sharing one process.
	serverClients = 2
	// serverRequests is the number of requests the loop serves in all.
	serverRequests = 2000
	// probeEvery plants a dangling-pointer probe after every probeEvery-th
	// request of a worker.
	probeEvery = 64
	// connSlots is the pointer-field count of a worker's connection object.
	connSlots = 64
)

// apacheProfile is the web-server analog the workload replays.
func apacheProfile() workloads.ServerProfile {
	p, err := workloads.ServerProfileByName("apache")
	if err != nil {
		panic(err) // the profile table is static
	}
	return p
}

// serverThread is one worker thread's state: its connection object, its
// protocol scratch space and the buffer sizes of its requests, all made
// in set-up.
type serverThread struct {
	th      *proc.Thread
	conn    uint64
	scratch uint64
	probe   uint64   // stack slot the dangling-pointer probes store into
	sizes   []uint64 // AllocsPerRequest sizes per request
	wrong   []string
	err     error
}

// newServerThreads builds the worker threads of the request loop.
func newServerThreads(seed int64, p *proc.Process) ([]*serverThread, error) {
	prof := apacheProfile()
	per := serverRequests / serverClients
	ts := make([]*serverThread, serverClients)
	for w := range ts {
		th := p.NewThread()
		conn, err := th.Malloc(8 * connSlots)
		if err != nil {
			return nil, fmt.Errorf("server-apache: conn: %w", err)
		}
		rng := rand.New(rand.NewSource(seed*7919 + int64(w)))
		sizes := make([]uint64, per*prof.AllocsPerRequest)
		for i := range sizes {
			sizes[i] = prof.BufferMin + uint64(rng.Int63n(int64(prof.BufferMax-prof.BufferMin+1)))
		}
		ts[w] = &serverThread{th: th, conn: conn, scratch: th.Alloca(8 * 64), probe: th.Alloca(8), sizes: sizes}
	}
	return ts, nil
}

// serve runs the thread's requests in a closed loop: each request
// allocates and links the connection's buffers, does protocol work and
// frees them all. It probes every probeEvery-th request.
func (s *serverThread) serve(prof workloads.ServerProfile, buf *spanBuf, opBase uint64) {
	th := s.th
	bufs := make([]uint64, prof.AllocsPerRequest)
	n := len(s.sizes) / prof.AllocsPerRequest
	for r := 0; r < n; r++ {
		op := opBase + uint64(r)
		traced := buf.sampled(op)
		root := int32(-1)
		if traced {
			root = buf.begin(spRequest, -1, op)
		}
		for i := range bufs {
			var sp int32
			if traced {
				sp = buf.begin(spMalloc, root, op)
			}
			b, err := th.Malloc(s.sizes[r*prof.AllocsPerRequest+i])
			if traced {
				buf.end(sp)
			}
			if err != nil {
				s.err = fmt.Errorf("server-apache: malloc: %w", err)
				return
			}
			bufs[i] = b
		}
		for k := 0; k < prof.PtrStoresPerRequest; k++ {
			var sp int32
			if traced {
				sp = buf.begin(spStorePtr, root, op)
			}
			f := th.StorePtr(s.conn+uint64(k%connSlots)*8, bufs[k%len(bufs)]+uint64(k%4)*8)
			if traced {
				buf.end(sp)
			}
			if f != nil {
				s.err = fmt.Errorf("server-apache: store: %w", f)
				return
			}
		}
		for c := 0; c < prof.ComputePerRequest; c++ {
			slot := s.scratch + uint64(c&63)*8
			v, f := th.Load(slot)
			if f == nil {
				f = th.StoreInt(slot, v+1)
			}
			if f != nil {
				s.err = fmt.Errorf("server-apache: compute: %w", f)
				return
			}
		}
		for _, b := range bufs {
			var sp int32
			if traced {
				sp = buf.begin(spFree, root, op)
			}
			err := th.Free(b)
			if traced {
				buf.end(sp)
			}
			if err != nil {
				s.err = fmt.Errorf("server-apache: free: %w", err)
				return
			}
		}
		if traced {
			buf.end(root)
		}
		if (r+1)%probeEvery == 0 {
			if why := danglingProbe(th, s.probe, buf, root, op, false); why != "" {
				s.wrong = append(s.wrong, fmt.Sprintf("request %d: %s", op, why))
			}
		}
	}
}

// procLayers serves the request loop on a fresh DangSan process with
// spans in tr, and records the proc.Thread call percentiles. A wrong probe
// verdict fails the run.
func procLayers(o *options, tr *tracer, m map[string]float64) error {
	prof := apacheProfile()
	p := proc.New(dangsan.New())
	ts, err := newServerThreads(o.seed, p)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	for w, s := range ts {
		wg.Add(1)
		buf := tr.buffer()
		go func(w int, s *serverThread) {
			defer wg.Done()
			s.serve(prof, buf, uint64(w)<<32)
		}(w, s)
	}
	wg.Wait()
	for _, s := range ts {
		if s.err != nil {
			return s.err
		}
		if len(s.wrong) > 0 {
			return fmt.Errorf("server-apache request loop: wrong verdict: %s", s.wrong[0])
		}
		s.th.Exit()
	}
	ns := func(name int, q float64) float64 { return percentile(tr.durations(name), q) }
	m["proc.malloc_ns.p50"] = ns(spMalloc, 0.50)
	m["proc.malloc_ns.p99"] = ns(spMalloc, 0.99)
	m["proc.free_ns.p50"] = ns(spFree, 0.50)
	m["proc.free_ns.p99"] = ns(spFree, 0.99)
	m["proc.store_ptr_ns.p50"] = ns(spStorePtr, 0.50)
	return nil
}

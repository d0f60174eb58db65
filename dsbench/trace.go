package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Span names: one per layer boundary the benchmark times from outside.
const (
	spRequest    = iota // one request of the proc-layer loop (root)
	spMalloc            // proc.Thread.Malloc
	spFree              // proc.Thread.Free
	spStorePtr          // proc.Thread.StorePtr
	spProbe             // a planted dangling-pointer probe
	spAnalog            // spec-suite: one RunSPEC call (root)
	spSvcAlloc          // service.Service.Alloc (root)
	spSvcFree           // service.Service.Free (root)
	spSvcCheck          // service.Service.Check (root)
	spSvcQuiesce        // service.Service.Quiesce (root)
	spCount
)

var spanNames = [spCount]string{
	"request", "proc.malloc", "proc.free", "proc.store_ptr", "probe",
	"spec.analog", "service.alloc", "service.free", "service.check", "service.quiesce",
}

// span is one timed call: name, start, end, the span that caused it
// (-1 for a root) and the op it belongs to.
type span struct {
	start, end int64 // ns since the tracer's origin
	op         uint64
	parent     int32
	name       uint16
}

// tracer keeps spans in memory, one buffer per goroutine so recording
// takes no lock, and writes them out when the benchmark ends. A nil
// *tracer records nothing.
type tracer struct {
	origin time.Time
	// every samples ops: only ops whose id is a multiple of every get
	// spans, which bounds memory on workloads with millions of calls.
	every uint64

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer(every uint64) *tracer {
	if every == 0 {
		every = 1
	}
	return &tracer{origin: time.Now(), every: every}
}

// spanBuf is one goroutine's span log.
type spanBuf struct {
	t     *tracer
	spans []span
}

// buffer returns a fresh per-goroutine buffer (nil for a nil tracer).
func (t *tracer) buffer() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// sampled reports whether op gets spans.
func (b *spanBuf) sampled(op uint64) bool {
	return b != nil && op%b.t.every == 0
}

// begin opens a span and returns its index for end and for children.
func (b *spanBuf) begin(name int, parent int32, op uint64) int32 {
	b.spans = append(b.spans, span{
		start:  int64(time.Since(b.t.origin)),
		op:     op,
		parent: parent,
		name:   uint16(name),
	})
	return int32(len(b.spans) - 1)
}

// end closes span i.
func (b *spanBuf) end(i int32) { b.spans[i].end = int64(time.Since(b.t.origin)) }

// durations returns every recorded duration of the named span, in ns.
func (t *tracer) durations(name int) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if int(s.name) == name {
				out = append(out, float64(s.end-s.start))
			}
		}
	}
	return out
}

// count is the number of spans recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

// write stores the spans as JSON lines: a header naming the span kinds,
// then [buffer, name, op, parent, start_ns, end_ns] per span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	hdr, _ := json.Marshal(map[string][]string{ // marshalling strings cannot fail
		"span_names": spanNames[:],
		"fields":     {"buffer", "name", "op", "parent", "start_ns", "end_ns"},
	})
	fmt.Fprintf(w, "%s\n", hdr)
	t.mu.Lock()
	for bi, b := range t.bufs {
		for _, s := range b.spans {
			fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d]\n", bi, s.name, s.op, s.parent, s.start, s.end)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
	"dangsan/internal/workloads"
)

// specNames lists the analogs in the paper's order.
func specNames() []string {
	var out []string
	for _, p := range workloads.SPECProfiles() {
		out = append(out, p.Name)
	}
	return out
}

// specSeed is the RunSPEC seed of analog i: every pass of a run replays
// the same inputs, so the pointer-log counts of two passes must agree.
func specSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// eventBlock is the number of program events one spec-suite latency
// sample spans.
const eventBlock = 1024

// eventClock is the spec-suite op counter: a proc.TraceSink that counts
// the events the process traces (mallocs, frees, pointer and integer
// stores, stack and thread events) and stamps the time every eventBlock
// events. RunSPEC drives a process from one goroutine, so the sink is
// never called concurrently.
type eventClock struct {
	n    uint64
	last time.Time
	lat  []float64 // mean µs per event over each block
}

func (c *eventClock) TraceEvent(kind uint8, tid int32, a, b, d uint64) {
	c.n++
	if c.n%eventBlock == 0 {
		now := time.Now()
		c.lat = append(c.lat, float64(now.Sub(c.last).Nanoseconds())/1e3/eventBlock)
		c.last = now
	}
}

// specPass runs all 19 SPEC CPU2006 analogs (Fig. 9), each on a fresh
// DangSan process. An op is a traced program event; a latency sample is
// the mean cost per event over a block of eventBlock events.
func specPass(o *options, tr *tracer) (*passResult, error) {
	profs := workloads.SPECProfiles()
	r := newPassResult()
	t0 := time.Now()
	dets := make([]*dangsan.Detector, len(profs))
	procs := make([]*proc.Process, len(profs))
	for i := range profs {
		dets[i] = dangsan.New()
		procs[i] = proc.New(dets[i])
	}
	r.setup = time.Since(t0)

	buf := tr.buffer()
	var cur atomic.Pointer[dangsan.Detector]
	cur.Store(dets[0])
	var peaks *peakSampler
	if buf != nil {
		peaks = startPeakSampler(func() (uint64, uint64) { return detectorBytes(cur.Load()) })
	}
	var sum pointerlog.Snapshot
	var allocs, frees uint64
	u0 := readUsage()
	for i, prof := range profs {
		p, det := procs[i], dets[i]
		cur.Store(det)
		sp := int32(-1)
		if buf != nil {
			sp = buf.begin(spAnalog, -1, uint64(i))
		}
		clock := &eventClock{}
		p.SetTracer(clock)
		a0 := time.Now()
		clock.last = a0
		err := workloads.RunSPEC(p, prof, specSeed(o.seed, i))
		d := time.Since(a0)
		p.SetTracer(nil)
		if buf != nil {
			buf.end(sp)
		}
		if err != nil {
			if peaks != nil {
				peaks.finish()
			}
			return nil, fmt.Errorf("spec-suite: %w", err)
		}
		st := det.Stats()
		as := p.Allocator().Stats()
		r.parts = append(r.parts, d)
		r.ops += int64(clock.n)
		r.lat = append(r.lat, clock.lat...)
		r.layers["spec."+prof.Name+".run_s"] = d.Seconds()
		addSnapshot(&sum, st)
		allocs += as.TotalAllocs
		frees += as.TotalFrees

		r.attempted++
		th := p.NewThread()
		if why := danglingProbe(th, th.Alloca(8), buf, sp, uint64(i), o.tamper); why != "" {
			r.failed++
			r.wrong = append(r.wrong, prof.Name+": "+why)
		}
		th.Exit()
		procs[i], dets[i] = nil, nil // let the collector take the process
	}
	r.use = readUsage().sub(u0)
	pointerlogLayers(r.layers, sum)
	r.layers["tcmalloc.allocs"] = float64(allocs)
	r.layers["tcmalloc.frees"] = float64(frees)
	if peaks != nil {
		resident, shadow := peaks.finish()
		r.layers["pointerlog.resident_bytes_peak"] = float64(resident)
		r.layers["shadow.bytes_peak"] = float64(shadow)
	}
	return r, nil
}

// specBaseline runs the same inputs under detectors.None and returns the
// wall time of each analog. The event counter is installed as in specPass,
// so the ratio of the two times is the detector's alone.
func specBaseline(o *options) ([]time.Duration, error) {
	var parts []time.Duration
	for i, prof := range workloads.SPECProfiles() {
		p := proc.New(detectors.None{})
		clock := &eventClock{}
		p.SetTracer(clock)
		t0 := time.Now()
		clock.last = t0
		if err := workloads.RunSPEC(p, prof, specSeed(o.seed, i)); err != nil {
			return nil, fmt.Errorf("spec-suite baseline: %w", err)
		}
		parts = append(parts, time.Since(t0))
	}
	return parts, nil
}

// detectorBytes reads the resident pointer-log bytes and the shadow-table
// bytes of det. It is not Detector.MetadataBytes, which adds the
// cumulative log bytes including released ones (see NOTES.md).
func detectorBytes(det *dangsan.Detector) (resident, shadow uint64) {
	lg := det.Logger()
	return lg.MetadataBytes(), det.MetadataBytes() - lg.Stats().LogBytesTotal()
}

// addSnapshot accumulates the pointer-log counters the benchmark reports.
func addSnapshot(dst *pointerlog.Snapshot, s pointerlog.Snapshot) {
	dst.Registered += s.Registered
	dst.Logged += s.Logged
	dst.Duplicates += s.Duplicates
	dst.Compressed += s.Compressed
	dst.HashTables += s.HashTables
	dst.Invalidated += s.Invalidated
	dst.Stale += s.Stale
}

// pointerlogLayers derives the pointer-log counts and waste ratios.
func pointerlogLayers(m map[string]float64, s pointerlog.Snapshot) {
	m["pointerlog.registered"] = float64(s.Registered)
	m["pointerlog.invalidated"] = float64(s.Invalidated)
	m["pointerlog.hash_tables"] = float64(s.HashTables)
	m["pointerlog.dup_frac"] = ratio(float64(s.Duplicates), float64(s.Registered))
	m["pointerlog.compressed_frac"] = ratio(float64(s.Compressed), float64(s.Logged))
	m["pointerlog.stale_frac"] = ratio(float64(s.Stale), float64(s.Invalidated+s.Stale))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// danglingProbe plants a pointer to a fresh object at loc on thread th:
// a load through it must not fault while the object lives, and after the
// free it must fault on the invalidated address of the freed object. It
// returns "" when the detector behaved, else what went wrong. tamper
// flips the verdict (the benchmark's negative control).
func danglingProbe(th *proc.Thread, loc uint64, buf *spanBuf, parent int32, op uint64, tamper bool) string {
	if buf.sampled(op) {
		sp := buf.begin(spProbe, parent, op)
		defer buf.end(sp)
	}
	obj, err := th.Malloc(64)
	if err != nil {
		return "probe malloc: " + err.Error()
	}
	if f := th.StorePtr(loc, obj); f != nil {
		return "probe store: " + f.Error()
	}
	if _, f := th.Deref(loc); f != nil {
		return "live pointer faulted: " + f.Error()
	}
	if err := th.Free(obj); err != nil {
		return "probe free: " + err.Error()
	}
	_, f := th.Deref(loc)
	if tamper {
		f = nil
	}
	if f == nil {
		return "dangling load did not fault"
	}
	if orig, inv := pointerlog.DecodeFault(f.Addr); !inv || orig != obj {
		return fmt.Sprintf("fault at %#x is not the invalidated pointer to %#x", f.Addr, obj)
	}
	return ""
}

// Command dsbench is the repository's benchmark. It runs one named
// workload against the DangSan reproduction for a fixed time, checks every
// verdict the program gives, and prints its metrics as one JSON object on
// the last line of standard output:
//
//	dsbench --workload spec-suite --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd); with
// --trace 1 a separate traced run reports the per-layer ones (perLayer).
// NOTES.md describes the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"dangsan/internal/service"
)

func main() {
	// The service's wire workers re-exec this binary.
	service.RunWorkerIfSpawned()
	os.Exit(cli(os.Args[1:], defaultOptions(), os.Stdout, os.Stderr))
}

// options configures one benchmark run.
type options struct {
	workload  string
	seed      int64
	seconds   time.Duration // measured loop length
	trace     bool
	minPasses int    // passes measured even past seconds
	warmup    bool   // run one untimed pass first
	clientOps int    // service-* script ops per client per pass
	workDir   string // sockets and worker spill dirs
	traceOut  string // span file of a traced run (default .bench_build/traces/<workload>-<seed>.jsonl)
	tamper    bool   // negative control: corrupt verdicts before judging
}

func defaultOptions() options {
	return options{
		seed:      1,
		seconds:   10 * time.Second,
		minPasses: 3,
		warmup:    true,
		clientOps: 8000,
		workDir:   filepath.Join(".bench_build", "run"),
	}
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"mem_peak_bytes", "bytes"},
	{"ok_frac", "frac"},
}

// perLayer are the metrics of single layers, reported by every traced
// run; those a workload does not exercise read 0.
var perLayer = append([]metricDef{
	{"proc.malloc_ns.p50", "ns"},
	{"proc.malloc_ns.p99", "ns"},
	{"proc.free_ns.p50", "ns"},
	{"proc.free_ns.p99", "ns"},
	{"proc.store_ptr_ns.p50", "ns"},
	{"baseline.run_s", "s"},
	{"detector.slowdown_x", "x"},
	{"tcmalloc.allocs", "count"},
	{"tcmalloc.frees", "count"},
	{"pointerlog.registered", "count"},
	{"pointerlog.invalidated", "count"},
	{"pointerlog.hash_tables", "count"},
	{"pointerlog.dup_frac", "frac"},
	{"pointerlog.compressed_frac", "frac"},
	{"pointerlog.stale_frac", "frac"},
	{"pointerlog.resident_bytes_peak", "bytes"},
	{"shadow.bytes_peak", "bytes"},
	{"service.alloc_us.p50", "us"},
	{"service.alloc_us.p99", "us"},
	{"service.free_us.p50", "us"},
	{"service.free_us.p99", "us"},
	{"service.check_us.p50", "us"},
	{"service.check_us.p99", "us"},
	{"service.retries", "count"},
	{"service.timeouts", "count"},
	{"service.degraded", "count"},
	{"service.failovers", "count"},
	{"service.heartbeat_misses", "count"},
	{"service.breaker_trips", "count"},
	{"transport.codec_ns", "ns"},
	{"transport.roundtrip_us.p50", "us"},
	{"transport.roundtrip_us.p99", "us"},
	{"coord.ctx_switches_per_op", "count"},
	{"coord.go_allocs_per_op", "count"},
	{"worker.cpu_us_per_op", "us"},
	{"layers.residual_us", "us"},
	{"go.gc_cpu_frac", "frac"},
	{"go.allocs_per_op", "count"},
	{"op_samples", "count"},
	{"trace.spans", "count"},
	{"trace.overhead_frac", "frac"},
}, specRunMetrics()...)

func specRunMetrics() []metricDef {
	var out []metricDef
	for _, p := range specNames() {
		out = append(out, metricDef{"spec." + p + ".run_s", "s"})
	}
	return out
}

// workload is one named input set and how to measure it. BENCHMARK.json
// records why each was chosen.
type workload struct {
	name string
	// pass sets up, runs the fixed measured work once and tears down.
	pass func(o *options, tr *tracer) (*passResult, error)
	// traceEvery samples the ops that get spans in a traced pass.
	traceEvery uint64
	// exact names layer counts every pass of a run must repeat.
	exact []string
	// layers measures the workload's own per-layer extras once per traced
	// run, given the untraced passes; its spans go to tr.
	layers func(o *options, tr *tracer, untraced []*passResult, m map[string]float64) error
}

var workloadList = []workload{
	{
		name:       "spec-suite",
		pass:       specPass,
		traceEvery: 1,
		exact: []string{"pointerlog.registered", "pointerlog.invalidated", "pointerlog.hash_tables",
			"pointerlog.dup_frac", "pointerlog.compressed_frac", "pointerlog.stale_frac", "tcmalloc.allocs", "tcmalloc.frees"},
		layers: func(o *options, tr *tracer, untraced []*passResult, m map[string]float64) error {
			if err := procLayers(o, tr, m); err != nil {
				return err
			}
			return baselineLayers(specBaseline, o, untraced, m)
		},
	},
	{
		name:       "service-chan",
		pass:       svcPass(service.TransportChan),
		traceEvery: 4,
	},
	{
		name:       "service-unix",
		pass:       svcPass(service.TransportUnix),
		traceEvery: 4,
		layers:     wireLayers,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloadList {
		if workloadList[i].name == name {
			return &workloadList[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// passResult is what one pass measured.
type passResult struct {
	setup     time.Duration   // everything before the first timed op
	parts     []time.Duration // wall time of the fixed measured work by part (spec-suite: per analog)
	ops       int64
	lat       []float64     // per-op latency samples, µs
	use       usage         // this process over the measured work
	child     time.Duration // CPU of worker processes over the whole pass
	selfPeak  uint64        // this process's peak RSS over the pass
	childPeak uint64        // summed peak RSS of worker processes
	attempted int64
	failed    int64
	wrong     []string // wrong verdicts: the run is not correct
	layers    map[string]float64
}

func newPassResult() *passResult { return &passResult{layers: map[string]float64{}} }

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cli parses the command line over the defaults in o, runs the benchmark
// and returns the exit code: 0 when every verdict was right, 1 when one
// was wrong (the result is still printed), 2 when the run could not be
// made.
func cli(args []string, o options, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", o.workload, "workload name")
	fs.Int64Var(&o.seed, "seed", o.seed, "input seed")
	secs := fs.Float64("seconds", o.seconds.Seconds(), "length of the measured loop in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*trace != 0 && *trace != 1) || *secs < 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "dsbench: want --trace 0|1, --seconds >= 0 and no positional arguments")
		return 2
	}
	o.seconds = time.Duration(*secs * float64(time.Second))
	o.trace = *trace == 1
	if o.trace && o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed))
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "dsbench:", err)
		return 2
	}
	res, env, err := run(&o, w, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "dsbench:", err)
		return 2
	}
	if err := printResult(stdout, env, res); err != nil {
		fmt.Fprintln(stderr, "dsbench:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// run measures workload w: an untimed warm-up pass, then passes until
// o.seconds have passed (and at least o.minPasses). A traced run
// alternates untraced and traced passes. Wrong verdicts are listed on
// stderr and make the result incorrect.
func run(o *options, w *workload, stderr io.Writer) (*result, map[string]any, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("work dir: %w", err)
	}
	var wrong []string
	var attempted, failed int64
	account := func(p *passResult) {
		wrong = append(wrong, p.wrong...)
		attempted += p.attempted
		failed += p.failed
	}
	// pass runs one pass from a clean heap and records its peak RSS.
	pass := func(tr *tracer) (*passResult, error) {
		betweenPasses()
		p, err := w.pass(o, tr)
		if err != nil {
			return nil, err
		}
		if p.selfPeak, err = peakRSS(); err != nil {
			return nil, fmt.Errorf("peak RSS: %w", err)
		}
		account(p)
		return p, nil
	}
	if o.warmup {
		if _, err := pass(nil); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	var tr *tracer
	if o.trace {
		tr = newTracer(w.traceEvery)
	}
	var untraced, traced []*passResult
	u0 := readUsage()
	start := time.Now()
	for len(untraced) < o.minPasses || time.Since(start) < o.seconds {
		p, err := pass(nil)
		if err != nil {
			return nil, nil, err
		}
		untraced = append(untraced, p)
		if tr == nil {
			continue
		}
		if p, err = pass(tr); err != nil {
			return nil, nil, err
		}
		traced = append(traced, p)
	}
	total := readUsage().sub(u0)
	wrong = append(wrong, inexact(w.exact, append(untraced, traced...))...)
	for i, why := range wrong {
		if i == 10 {
			fmt.Fprintf(stderr, "dsbench: ... %d more wrong verdicts\n", len(wrong)-i)
			break
		}
		fmt.Fprintln(stderr, "dsbench: wrong:", why)
	}

	res := &result{Correct: len(wrong) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	var n int // latency samples behind the metrics
	if o.trace {
		m, err := layerMetrics(o, w, tr, untraced, traced, total)
		if err != nil {
			return nil, nil, err
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{m[d.name], d.unit}
		}
		n = samples(traced)
		if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err != nil {
			return nil, nil, fmt.Errorf("trace: %w", err)
		}
		if err := tr.write(o.traceOut); err != nil {
			return nil, nil, err
		}
	} else {
		m := endToEndMetrics(untraced, attempted, failed)
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{m[d.name], d.unit}
		}
		n = samples(untraced)
	}
	env := environment(o, len(untraced)+len(traced), n)
	return res, env, nil
}

// inexact reports layer counts that differ between passes.
func inexact(keys []string, passes []*passResult) []string {
	var out []string
	for _, k := range keys {
		for _, p := range passes[1:] {
			if p.layers[k] != passes[0].layers[k] {
				out = append(out, fmt.Sprintf("%s differs between passes: %v vs %v", k, passes[0].layers[k], p.layers[k]))
				break
			}
		}
	}
	return out
}

// samples counts the latency samples of ps.
func samples(ps []*passResult) int {
	n := 0
	for _, p := range ps {
		n += len(p.lat)
	}
	return n
}

// endToEndMetrics derives the user-facing metrics from the untraced
// passes. Every figure is a median over passes, so a burst of host
// contention that slows a minority of passes does not move it: run_s is
// runTime, latency percentiles are taken within each pass, and peak RSS
// is each pass's own as the kernel saw it.
func endToEndMetrics(ps []*passResult, attempted, failed int64) map[string]float64 {
	var setup, ops, cpu, mem []float64
	for _, p := range ps {
		setup = append(setup, p.setup.Seconds())
		ops = append(ops, float64(p.ops))
		cpu = append(cpu, (p.use.cpu+p.child).Seconds()*1e6/float64(p.ops))
		mem = append(mem, float64(p.selfPeak+p.childPeak))
	}
	run := runTime(ps)
	return map[string]float64{
		"setup_s":        median(setup),
		"run_s":          run,
		"ops_per_s":      median(ops) / run,
		"op_p50_us":      latency(ps, 0.50),
		"op_p99_us":      latency(ps, 0.99),
		"cpu_us_per_op":  median(cpu),
		"mem_peak_bytes": median(mem),
		"ok_frac":        1 - float64(failed)/float64(attempted),
	}
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(o *options, w *workload, tr *tracer, untraced, traced []*passResult, total usage) (map[string]float64, error) {
	m := map[string]float64{}
	keys := map[string]bool{}
	for _, p := range traced {
		for k := range p.layers {
			keys[k] = true
		}
	}
	for k := range keys {
		var xs []float64
		for _, p := range traced {
			xs = append(xs, p.layers[k])
		}
		m[k] = median(xs)
	}
	if w.layers != nil {
		if err := w.layers(o, tr, untraced, m); err != nil {
			return nil, err
		}
	}
	us := func(name int, q float64) float64 { return percentile(tr.durations(name), q) / 1e3 }
	m["service.alloc_us.p50"] = us(spSvcAlloc, 0.50)
	m["service.alloc_us.p99"] = us(spSvcAlloc, 0.99)
	m["service.free_us.p50"] = us(spSvcFree, 0.50)
	m["service.free_us.p99"] = us(spSvcFree, 0.99)
	m["service.check_us.p50"] = us(spSvcCheck, 0.50)
	m["service.check_us.p99"] = us(spSvcCheck, 0.99)

	var ops int64
	for _, p := range untraced {
		ops += p.ops
	}
	for _, p := range traced {
		ops += p.ops
	}
	m["go.gc_cpu_frac"] = ratio(total.gcCPU, total.allCPU)
	m["go.allocs_per_op"] = float64(total.goAllocs) / float64(ops)
	m["op_samples"] = float64(samples(traced))
	m["trace.spans"] = float64(tr.count())
	m["trace.overhead_frac"] = runTime(traced)/runTime(untraced) - 1
	for k := range m {
		if !knownLayer(k) {
			return nil, fmt.Errorf("layer metric %q is not declared", k)
		}
	}
	return m, nil
}

func knownLayer(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

// latency is the median over passes of each pass's q-quantile op
// latency, in µs.
func latency(ps []*passResult, q float64) float64 {
	var xs []float64
	for _, p := range ps {
		xs = append(xs, percentile(p.lat, q))
	}
	return median(xs)
}

// partMedians returns each part's median wall time across passes, in
// seconds.
func partMedians(ps []*passResult) []float64 {
	out := make([]float64, len(ps[0].parts))
	for i := range out {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, p.parts[i].Seconds())
		}
		out[i] = median(xs)
	}
	return out
}

// runTime is the robust wall time of one pass's work in seconds: the sum
// of partMedians. A pass with one part (every workload but spec-suite)
// gives the median pass time.
func runTime(ps []*passResult) float64 {
	var total float64
	for _, t := range partMedians(ps) {
		total += t
	}
	return total
}

// baselineLayers runs the same inputs under detectors.None and records
// their run time and the detector's slowdown over it: the geometric mean
// over the pass's parts (the paper's Fig. 9 average on spec-suite) of each
// part's median untraced time over its baseline time.
func baselineLayers(runBaseline func(*options) ([]time.Duration, error), o *options, untraced []*passResult, m map[string]float64) error {
	base, err := runBaseline(o)
	if err != nil {
		return err
	}
	var total, logSum float64
	for i, t := range partMedians(untraced) {
		total += base[i].Seconds()
		logSum += math.Log(t / base[i].Seconds())
	}
	m["baseline.run_s"] = total
	m["detector.slowdown_x"] = math.Exp(logSum / float64(len(base)))
	return nil
}

// wireLayers measures the transport layer on its own and the residual of
// the layer sum: the service-unix op p50 less the service-chan op p50,
// the no-op socket round trip and the codec cost.
func wireLayers(o *options, _ *tracer, untraced []*passResult, m map[string]float64) error {
	ops := buildClients(o)[0].ops
	codec, err := codecNs(ops)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.workDir, "rt")
	if err != nil {
		return fmt.Errorf("roundtrip dir: %w", err)
	}
	defer os.RemoveAll(dir)
	rt, err := roundtripUs(dir, ops)
	if err != nil {
		return err
	}
	chanPass, err := svcPass(service.TransportChan)(o, nil)
	if err != nil {
		return err
	}
	if len(chanPass.wrong) > 0 {
		return fmt.Errorf("service-chan reference pass: wrong verdict: %s", chanPass.wrong[0])
	}
	unixP50 := latency(untraced, 0.50)
	chanP50 := latency([]*passResult{chanPass}, 0.50)
	m["transport.codec_ns"] = codec
	m["transport.roundtrip_us.p50"] = percentile(rt, 0.50)
	m["transport.roundtrip_us.p99"] = percentile(rt, 0.99)
	m["layers.residual_us"] = unixP50 - chanP50 - m["transport.roundtrip_us.p50"] - codec/1e3
	return nil
}

// printResult writes the environment line and then the result line.
func printResult(w io.Writer, env map[string]any, res *result) error {
	e, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	r, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", e, r)
	return err
}

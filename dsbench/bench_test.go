package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"dangsan/internal/service"
	"dangsan/internal/vmem"
)

// TestMain lets the test binary serve as a spawned wire worker: the
// service-unix workload re-execs the current executable.
func TestMain(m *testing.M) {
	service.RunWorkerIfSpawned()
	os.Exit(m.Run())
}

// shortOptions is one short pass of a workload.
func shortOptions(t *testing.T) options {
	o := defaultOptions()
	o.seed = 7
	o.seconds = 0
	o.minPasses = 1
	o.warmup = false
	o.clientOps = 1000
	o.workDir = t.TempDir()
	return o
}

// runCLI runs the command line on o and decodes the last line.
func runCLI(t *testing.T, o options, args ...string) (int, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := cli(args, o, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if code != 2 {
		if len(lines) != 2 {
			t.Fatalf("want an env line and a result line, got %q (stderr %s)", out.String(), errOut.String())
		}
		if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
			t.Fatalf("result line: %v", err)
		}
		var env map[string]map[string]any
		if err := json.Unmarshal([]byte(lines[0]), &env); err != nil {
			t.Fatalf("env line: %v", err)
		}
		for _, k := range []string{"host", "nproc", "gomaxprocs", "go", "commit", "seed", "op_samples"} {
			if _, ok := env["env"][k]; !ok {
				t.Errorf("env block lacks %q", k)
			}
		}
	}
	return code, res, errOut.String()
}

func checkMetrics(t *testing.T, res result, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", d.name, m.Value)
		}
	}
}

// TestEveryWorkload runs one short untraced and one short traced pass of
// every workload: every metric is emitted with its unit, every verdict
// is right, and the layer sum computes.
func TestEveryWorkload(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			o := shortOptions(t)
			code, res, stderr := runCLI(t, o, "--workload", w.name, "--trace", "0")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: code %d result %+v stderr %s", code, res, stderr)
			}
			checkMetrics(t, res, endToEnd, true)
			if got := res.Metrics["ok_frac"].Value; got != 1 {
				t.Errorf("ok_frac = %v on a clean run", got)
			}

			o.traceOut = t.TempDir() + "/spans.jsonl"
			code, res, stderr = runCLI(t, o, "--workload", w.name, "--trace", "1")
			if code != 0 || !res.Correct {
				t.Fatalf("traced: code %d stderr %s", code, stderr)
			}
			checkMetrics(t, res, perLayer, false)
			if res.Metrics["trace.spans"].Value == 0 {
				t.Error("traced run recorded no spans")
			}
			if _, err := os.Stat(o.traceOut); err != nil {
				t.Errorf("span file: %v", err)
			}
			m := func(name string) float64 { return res.Metrics[name].Value }
			switch w.name {
			case "spec-suite":
				for _, n := range []string{"pointerlog.registered", "pointerlog.hash_tables", "detector.slowdown_x",
					"spec.471.omnetpp.run_s", "baseline.run_s", "proc.malloc_ns.p50", "proc.free_ns.p99", "proc.store_ptr_ns.p50"} {
					if m(n) <= 0 {
						t.Errorf("%s = %v", n, m(n))
					}
				}
			case "service-unix":
				want := m("transport.roundtrip_us.p50") + m("transport.codec_ns")/1e3 + m("layers.residual_us")
				if m("transport.roundtrip_us.p50") <= 0 || m("transport.codec_ns") <= 0 || want <= 0 {
					t.Errorf("layer sum does not compute: %v", res.Metrics)
				}
				if m("worker.cpu_us_per_op") <= 0 {
					t.Error("worker CPU not measured")
				}
			}
		})
	}
}

// TestTamperedVerdictFails is the negative control: corrupting verdicts
// before they are judged must raise the failed count and make the
// command exit nonzero.
func TestTamperedVerdictFails(t *testing.T) {
	for _, name := range []string{"spec-suite", "service-chan"} {
		t.Run(name, func(t *testing.T) {
			o := shortOptions(t)
			o.tamper = true
			code, res, stderr := runCLI(t, o, "--workload", name, "--trace", "0")
			if code == 0 || res.Correct {
				t.Fatalf("tampered run exited %d correct=%v", code, res.Correct)
			}
			if res.Failed == 0 || res.Metrics["ok_frac"].Value >= 1 {
				t.Errorf("tampered run: failed %d ok_frac %v", res.Failed, res.Metrics["ok_frac"].Value)
			}
			if !strings.Contains(stderr, "wrong:") {
				t.Errorf("stderr does not name the wrong verdict: %s", stderr)
			}
		})
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "service-chan", "--trace", "2"},
		{"--workload", "service-chan", "extra"},
	} {
		if code, _, _ := runCLI(t, shortOptions(t), args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestJudge(t *testing.T) {
	check := service.ScriptOp{Kind: "check"}
	cases := []struct {
		name             string
		op               service.ScriptOp
		v                service.Verdict
		err              error
		allocated, freed bool
		failed, wrong    bool
	}{
		{"live ok", check, service.Verdict{Known: true}, nil, true, false, false, false},
		{"live uaf", check, service.Verdict{Known: true, UAF: true}, nil, true, false, true, true},
		{"live unknown", check, service.Verdict{}, nil, true, false, true, true},
		{"live fault", check, service.Verdict{Known: true}, &vmem.Fault{Addr: 1 << 63}, true, false, true, true},
		{"freed detected", check, service.Verdict{Known: true, Freed: true, UAF: true}, nil, true, true, false, false},
		{"freed aged out", check, service.Verdict{}, nil, true, true, false, false},
		{"freed reads live", check, service.Verdict{Known: true}, nil, true, true, true, true},
		{"freed missed", check, service.Verdict{Known: true, Freed: true}, nil, true, true, true, true},
		{"degraded", check, service.Verdict{Degraded: true}, nil, true, false, true, false},
		{"typed error", service.ScriptOp{Kind: "alloc"}, service.Verdict{}, &service.DeadlineError{}, false, false, true, false},
		{"untyped error", service.ScriptOp{Kind: "free"}, service.Verdict{}, errors.New("boom"), true, false, true, true},
	}
	for _, c := range cases {
		why, failed := judge(c.op, c.v, c.err, c.allocated, c.freed)
		if failed != c.failed || (why != "") != c.wrong {
			t.Errorf("%s: failed=%v why=%q, want failed=%v wrong=%v", c.name, failed, why, c.failed, c.wrong)
		}
	}
}

func TestInexact(t *testing.T) {
	a, b := newPassResult(), newPassResult()
	a.layers["x"], b.layers["x"] = 1, 1
	if got := inexact([]string{"x"}, []*passResult{a, b}); len(got) != 0 {
		t.Errorf("equal counts reported: %v", got)
	}
	b.layers["x"] = 2
	if got := inexact([]string{"x"}, []*passResult{a, b}); len(got) != 1 {
		t.Errorf("differing counts not reported: %v", got)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || percentile(xs, 0.5) != 3 || percentile(xs, 0.99) != 5 || percentile(xs, 0.2) != 1 {
		t.Errorf("median %v p50 %v p99 %v p20 %v", median(xs), percentile(xs, 0.5), percentile(xs, 0.99), percentile(xs, 0.2))
	}
	if median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("even median")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadList) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloadList))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadList) && w.Name != workloadList[i].name {
			t.Errorf("workload %d: declared %s, implemented %s", i, w.Name, workloadList[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d emitted", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: declared %s %s, emitted %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tiny runs every workload at a sliver of its size: one timed repeat, one
// set-up, no time budget.
var tiny = config{scale: 0.02, minReps: 1, setups: 1}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("too many: %d workloads, %d end-to-end, %d per-layer (limits 8/16/128)",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloadTable))
	}
	for i, w := range workloadTable {
		name(w.name)
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q (or their why differs)", i, b.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range endToEnd {
		name(d.name)
		if g := b.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, g, d)
		}
		if !unitRE.MatchString(d.unit) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end %s: bad unit %q or bound %v", d.name, d.unit, d.bound)
		}
		setup = setup || d.name == "setup_s" && d.unit == "s" && d.better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		name(d.name)
		if g := b.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, g, d)
		}
		if !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("per-layer %s: bad unit %q or direction %q", d.name, d.unit, d.better)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
}

// exactCounts are per-layer metrics the program counts itself: two runs of
// one seed must agree to the last digit.
var exactCounts = []string{
	"compile.ir_funcs", "compile.sites", "compile.sites_elided", "compile.desc_nodes",
	"compile.code_words", "compile.gc_metadata_words", "gc.metadata_words_interp",
	"vm.instructions", "vm.calls", "vm.allocations", "vm.max_stack_words",
	"tasking.instructions", "tasking.collections", "tasking.shard_minors",
	"heap.allocations", "heap.words_allocated", "heap.words_copied", "heap.collections",
	"heap.minor_collections", "heap.promoted_words", "heap.freelist_hits", "heap.tlab_refills",
	"gc.collections", "gc.frames_traced", "gc.objects_copied", "gc.barrier_hits",
	"serve.requests", "serve.arrivals", "serve.completed", "serve.shed", "serve.retries",
	"serve.dropped", "serve.steps", "serve.latency_p50_ksteps", "serve.latency_p99_ksteps",
}

// traceSpans reads a Chrome trace-event file and returns how many spans
// each layer has.
func traceSpans(t *testing.T, path, workload string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	layers := map[string]int{}
	for i, e := range f.TraceEvents {
		if e.Ph != "X" || e.Name == "" || e.Dur < 0 || e.TS < 0 {
			t.Errorf("span %d is not a complete event: %+v", i, e)
		}
		if e.Args["workload"] != workload {
			t.Errorf("span %d carries workload %v, want %s", i, e.Args["workload"], workload)
		}
		if parent, ok := e.Args["parent"].(float64); !ok || int(parent) >= i {
			t.Errorf("span %d: parent %v must be an earlier span or -1", i, e.Args["parent"])
		}
		layers[e.Cat]++
	}
	return layers
}

func TestEveryWorkloadAtTinyScale(t *testing.T) {
	dir := t.TempDir()
	spanned := map[string]int{}
	for _, w := range workloadTable {
		e2e, err := measure(w, 1, tiny)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted < 1 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d %v", w.name, e2e.Correct, e2e.Attempted, e2e.Failed, e2e.Wrong)
		}
		if len(e2e.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(e2e.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if v, ok := e2e.Metrics[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", w.name, d.name, v, d.unit)
			}
		}

		traced := tiny
		traced.trace = true
		traced.traceOut = filepath.Join(dir, w.name+".json")
		var runs [2]*result
		for i := range runs {
			if runs[i], err = measure(w, 1, traced); err != nil {
				t.Fatalf("%s traced: %v", w.name, err)
			}
			if !runs[i].Correct {
				t.Errorf("%s traced: %v", w.name, runs[i].Wrong)
			}
		}
		if len(runs[0].Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(runs[0].Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			if _, ok := runs[0].Metrics[d.name]; !ok {
				t.Errorf("%s: per-layer %s is missing", w.name, d.name)
			}
		}
		for _, n := range exactCounts {
			if a, b := runs[0].Metrics[n].Value, runs[1].Metrics[n].Value; a != b {
				t.Errorf("%s: %s is %v then %v on one seed", w.name, n, a, b)
			}
		}
		for layer, n := range traceSpans(t, traced.traceOut, w.name) {
			spanned[layer] += n
		}

		// A second seed: another program, still right, about the same work.
		if w.gen(1, tiny.scale).source == w.gen(2, tiny.scale).source {
			t.Errorf("%s: seeds 1 and 2 generate the same program", w.name)
		}
		other, err := measure(w, 2, tiny)
		if err != nil {
			t.Fatalf("%s seed 2: %v", w.name, err)
		}
		if !other.Correct {
			t.Errorf("%s seed 2: %v", w.name, other.Wrong)
		}
		// serve is exempt: its seed also samples the request mix.
		size := "instructions"
		if w.kind == kindCompile {
			size = "source_bytes"
		}
		a, b := float64(e2e.Sizes[size]), float64(other.Sizes[size])
		if w.kind != kindServe && math.Abs(a-b) > 0.02*a {
			t.Errorf("%s: %s is %v on seed 1, %v on seed 2: the seed must not change the amount of work", w.name, size, a, b)
		}
	}
	for _, layer := range []string{layerMlang, layerCompile, layerVM, layerTasking, layerHeap, layerGC, layerServe} {
		if spanned[layer] == 0 {
			t.Errorf("no workload's trace has a span in layer %s", layer)
		}
	}
}

func TestWrongValueFailsTheGate(t *testing.T) {
	w, _ := workloadByName("polystack")
	lying := w
	lying.gen = func(seed int64, scale float64) program {
		p := w.gen(seed, scale)
		p.expect[2]++
		return p
	}
	res, err := measure(lying, 1, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || len(res.Wrong) == 0 {
		t.Errorf("a wrong expected value passed the gate: %+v", res)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v, %v, want 1, 4", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCompare(t *testing.T) {
	runS := metricDef{name: "t", unit: "s", better: "lower", bound: 0.08}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.01, 0.99, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{0.8, 1.2, 0.9, 1.1, 1.0, 0.85, 1.15, 0.95, 1.05, 1.0}
	for _, c := range []struct {
		name string
		a, b []float64
		want verdict
	}{
		{"same", steady, steady, verdictOK},
		{"faster", steady, scale(steady, 0.5), verdictOK},
		{"within bound", steady, scale(steady, 1.05), verdictOK},
		{"slower", steady, scale(steady, 1.2), verdictRegressed},
		{"too noisy to tell", noisy, noisy, verdictUnresolved},
		{"noisy but every run better", noisy, scale(noisy, 0.5), verdictOK},
	} {
		if got, _ := judge(runS, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	dir := t.TempDir()
	file := func(name string, runS float64) string {
		var f runFile
		for i := 0; i < 4; i++ {
			m := map[string]metricValue{}
			for _, d := range endToEnd {
				m[d.name] = metricValue{Value: 1, Unit: d.unit}
			}
			m["run_s"] = metricValue{Value: runS, Unit: "s"}
			f.Runs = append(f.Runs, &result{Workload: "churn", Seed: int64(i), Correct: true, Attempted: 1, Metrics: m})
		}
		path := filepath.Join(dir, name)
		if err := writeRunFile(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := file("a.json", 2), file("same.json", 2), file("slow.json", 3)
	var out bytes.Buffer
	if err := compareMain([]string{a, same}, &out); err != nil {
		t.Errorf("A/A comparison failed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareMain([]string{a, slow}, &out); err == nil || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a 50%% slower run_s did not regress:\n%s", out.String())
	}
}

package main

// The metric names. BENCHMARK.json at the repository root repeats these
// tables (bench_test.go holds the two equal); -compare reads the bounds
// from here.

import (
	"fmt"
	"sort"
)

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: worsening, as a share of the baseline median, that counts as a regression
}

// endToEnd is what a user of the system sees, on every workload. The
// pause percentiles, the serve latencies and goodput, and the code-size
// counts are per-layer metrics instead: they do not exist (or are 0) on some
// workloads, and an end-to-end metric must be reported, non-zero, on all.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var perLayer = []metricDef{
	// mlang: lexer, parser, type checker, exhaustiveness.
	{name: "mlang.parse_s", unit: "s", better: "lower"},
	{name: "mlang.check_s", unit: "s", better: "lower"},
	{name: "mlang.exhaust_s", unit: "s", better: "lower"},
	{name: "mlang.source_kb", unit: "KB", better: "lower"},
	{name: "mlang.parse_mb_per_s", unit: "MB/s", better: "higher"},

	// compile: lowering, GC-possible analysis, code generation.
	{name: "compile.build_s", unit: "s", better: "lower"},
	{name: "compile.lower_s", unit: "s", better: "lower"},
	{name: "compile.gcanal_s", unit: "s", better: "lower"},
	{name: "compile.codegen_s", unit: "s", better: "lower"},
	{name: "compile.codegen_tagged_s", unit: "s", better: "lower"},
	{name: "compile.ir_funcs", unit: "count", better: "lower"},
	{name: "compile.sites", unit: "count", better: "lower"},
	{name: "compile.sites_elided", unit: "count", better: "higher"},
	{name: "compile.desc_nodes", unit: "count", better: "lower"},
	{name: "compile.host_alloc_mb", unit: "MB", better: "lower"},
	{name: "compile.code_words", unit: "words", better: "lower"},
	{name: "compile.gc_metadata_words", unit: "words", better: "lower"},

	// vm: the single-task interpreter.
	{name: "vm.instructions", unit: "count", better: "lower"},
	{name: "vm.calls", unit: "count", better: "lower"},
	{name: "vm.clos_calls", unit: "count", better: "lower"},
	{name: "vm.allocations", unit: "count", better: "lower"},
	{name: "vm.max_stack_words", unit: "words", better: "lower"},
	{name: "vm.mutator_s", unit: "s", better: "lower"},
	{name: "vm.ns_per_instr", unit: "ns", better: "lower"},
	{name: "vm.mutator_s_compiled", unit: "s", better: "lower"},
	{name: "vm.mutator_s_tagged", unit: "s", better: "lower"},

	// tasking: the multi-task interpreter and Rgc scheduler.
	{name: "tasking.instructions", unit: "count", better: "lower"},
	{name: "tasking.mutator_s", unit: "s", better: "lower"},
	{name: "tasking.ns_per_instr", unit: "ns", better: "lower"},
	{name: "tasking.rgc_checks", unit: "count", better: "lower"},
	{name: "tasking.collections", unit: "count", better: "lower"},
	{name: "tasking.suspend_latency_p50_instr", unit: "count", better: "lower"},
	{name: "tasking.suspend_latency_max_instr", unit: "count", better: "lower"},
	{name: "tasking.shard_minors", unit: "count", better: "higher"},
	{name: "tasking.shard_overlap_tasks", unit: "count", better: "higher"},
	{name: "tasking.shard_exposures", unit: "count", better: "lower"},

	// heap: bump, free list, nursery, TLAB.
	{name: "heap.allocations", unit: "count", better: "lower"},
	{name: "heap.words_allocated", unit: "words", better: "lower"},
	{name: "heap.words_copied", unit: "words", better: "lower"},
	{name: "heap.peak_live_words", unit: "words", better: "lower"},
	{name: "heap.collections", unit: "count", better: "lower"},
	{name: "heap.minor_collections", unit: "count", better: "lower"},
	{name: "heap.promoted_words", unit: "words", better: "lower"},
	{name: "heap.freelist_hits", unit: "count", better: "higher"},
	{name: "heap.shared_allocs_per_alloc", unit: "ratio", better: "lower"},
	{name: "heap.tlab_refills", unit: "count", better: "lower"},
	{name: "heap.tlab_waste_words", unit: "words", better: "lower"},
	{name: "heap.growths", unit: "count", better: "lower"},
	{name: "heap.alloc_ns", unit: "ns", better: "lower"},

	// gc: root resolve, trace, flip or sweep.
	{name: "gc.collections", unit: "count", better: "lower"},
	{name: "gc.pause_samples", unit: "count", better: "higher"},
	{name: "gc.pause_total_s", unit: "s", better: "lower"},
	{name: "gc.pause_p50_us", unit: "us", better: "lower"},
	{name: "gc.pause_p90_us", unit: "us", better: "lower"},
	{name: "gc.pause_p99_us", unit: "us", better: "lower"},
	{name: "gc.pause_max_us", unit: "us", better: "lower"},
	{name: "gc.minor_pause_p50_us", unit: "us", better: "lower"},
	{name: "gc.major_pause_p50_us", unit: "us", better: "lower"},
	{name: "gc.frames_traced", unit: "count", better: "lower"},
	{name: "gc.slots_traced", unit: "count", better: "lower"},
	{name: "gc.objects_copied", unit: "count", better: "lower"},
	{name: "gc.words_visited", unit: "words", better: "lower"},
	{name: "gc.ns_per_word_visited", unit: "ns", better: "lower"},
	{name: "gc.plan_hit_ratio", unit: "ratio", better: "higher"},
	{name: "gc.site_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "gc.kernel_word_share", unit: "ratio", better: "higher"},
	{name: "gc.typegc_built", unit: "count", better: "lower"},
	{name: "gc.barrier_hits", unit: "count", better: "lower"},
	{name: "gc.remembered_peak", unit: "count", better: "lower"},
	{name: "gc.ladder_recovered", unit: "count", better: "lower"},
	{name: "gc.ladder_exhausted", unit: "count", better: "lower"},
	{name: "gc.probe_resolve_us", unit: "us", better: "lower"},
	{name: "gc.probe_collect_us", unit: "us", better: "lower"},
	{name: "gc.probe_trace_us", unit: "us", better: "lower"},
	{name: "gc.pause_total_s_compiled", unit: "s", better: "lower"},
	{name: "gc.pause_total_s_interp", unit: "s", better: "lower"},
	{name: "gc.pause_total_s_appel", unit: "s", better: "lower"},
	{name: "gc.pause_total_s_tagged", unit: "s", better: "lower"},
	{name: "gc.metadata_words_interp", unit: "words", better: "lower"},

	// serve: arrivals, admission, degradation ladder.
	{name: "serve.requests", unit: "count", better: "higher"},
	{name: "serve.arrivals", unit: "count", better: "lower"},
	{name: "serve.admitted", unit: "count", better: "higher"},
	{name: "serve.completed", unit: "count", better: "higher"},
	{name: "serve.shed", unit: "count", better: "lower"},
	{name: "serve.shed_heap", unit: "count", better: "lower"},
	{name: "serve.retries", unit: "count", better: "lower"},
	{name: "serve.dropped", unit: "count", better: "lower"},
	{name: "serve.canceled", unit: "count", better: "lower"},
	{name: "serve.faulted", unit: "count", better: "lower"},
	{name: "serve.forced_majors", unit: "count", better: "lower"},
	{name: "serve.steps", unit: "count", better: "lower"},
	{name: "serve.ns_per_step", unit: "ns", better: "lower"},
	{name: "serve.goodput_rps", unit: "1/s", better: "higher"},
	{name: "serve.latency_p50_ksteps", unit: "ksteps", better: "lower"},
	{name: "serve.latency_p99_ksteps", unit: "ksteps", better: "lower"},
	{name: "serve.latency_p999_ksteps", unit: "ksteps", better: "lower"},
	{name: "serve.latency_max_ksteps", unit: "ksteps", better: "lower"},

	// bench: the measurement itself.
	{name: "bench.reps", unit: "count", better: "higher"},
	{name: "bench.run_s_median", unit: "s", better: "lower"},
	{name: "bench.run_s_iqr", unit: "s", better: "lower"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "bench.failed_share", unit: "ratio", better: "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values for one table of definitions; a metric never
// set reports 0 (its layer did not run in this workload).
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = v
			return
		}
	}
	panic(fmt.Sprintf("benchmark: metric %q is not defined", name)) // a bug in this package
}

func (m *metricSet) count(name string, n int64) { m.set(name, float64(n)) }

// ratio sets name to num/den, or 0 when den is 0.
func (m *metricSet) ratio(name string, num, den float64) {
	if den != 0 {
		m.set(name, num/den)
	}
}

func (m *metricSet) export() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = metricValue{Value: m.values[d.name], Unit: d.unit}
	}
	return out
}

// median of an unsorted sample (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method) — the
// rule the repository's driver applies to this benchmark's output.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

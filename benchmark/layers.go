package main

// The traced pass: the same workload with spans around every call into a
// layer, plus the probes that time one layer directly (a captured root set
// through the collector, the allocator on a fresh heap) and the like-for-like
// runs of the other three collection strategies. Everything here is measured
// from outside through the layers' public functions and the counters their
// calls already return.

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"tagfree/internal/code"
	"tagfree/internal/compile/codegen"
	"tagfree/internal/compile/gcanal"
	"tagfree/internal/compile/lower"
	"tagfree/internal/gc"
	"tagfree/internal/heap"
	"tagfree/internal/ir"
	"tagfree/internal/mlang/ast"
	"tagfree/internal/mlang/exhaust"
	"tagfree/internal/mlang/parser"
	"tagfree/internal/mlang/types"
	"tagfree/internal/pipeline"
	"tagfree/internal/stats"
)

// strategyScale sizes the four-strategy comparison relative to the run:
// Appel's per-collection cost is quadratic in stack depth, so the full-size
// polystack would not finish inside the benchmark's time limit.
const strategyScale = 1.0 / 32

const (
	probeRounds   = 10
	probeResolves = 20 // per round
	probeCollects = 3  // per round
	probeAllocs   = 1 << 19
)

func measureTraced(w workload, seed int64, cfg config, res *result) error {
	tr := newTracer(w.name)
	m := newMetricSet(perLayer)

	in, err := setUp(w, seed, cfg, tr, res)
	if err != nil {
		return err
	}
	if err := buildTraced(in.p.source, w.opts, tr, m); err != nil {
		return err
	}

	// Tracing off and on by turns, so that drift in the machine's speed
	// lands on both sides; the ratio of the fastest of each is what the
	// spans cost.
	var plain, traced []*sample
	var spent time.Duration
	for len(plain) < cfg.minReps || spent.Seconds() < cfg.seconds {
		p, err := repeat(in, 0, 1, res)
		if err != nil {
			return err
		}
		runtime.GC()
		t, err := in.run(tr)
		if err != nil {
			return err
		}
		res.tally(t)
		plain, traced = append(plain, p[0]), append(traced, t)
		spent += p[0].wall + t.wall
	}
	s := traced[len(traced)-1]
	res.stampSizes(in, s, len(plain))

	q1, q3 := quartiles(walls(plain))
	m.count("bench.reps", int64(len(plain)))
	m.set("bench.run_s_median", median(walls(plain)))
	m.set("bench.run_s_iqr", q3-q1)
	m.ratio("bench.trace_overhead_ratio", slices.Min(walls(traced)), slices.Min(walls(plain)))

	var pool pausePool
	for i := range plain {
		pool.add(plain[i].pauses)
		pool.add(traced[i].pauses)
	}
	runMetrics(in, s, &pool, m)

	if err := probeCollector(in, tr, m); err != nil {
		return err
	}
	probeAllocator(in, s, tr, m)
	if err := compareStrategies(w, seed, cfg, m, res); err != nil {
		return err
	}

	m.ratio("bench.failed_share", float64(res.Failed), float64(res.Attempted))
	res.Metrics = m.export()
	if cfg.traceOut != "" {
		if err := tr.write(cfg.traceOut); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}

// buildTraced runs the front end and the compiler one layer function at a
// time, each in its own span. The program it builds is measured, not run:
// runs go through pipeline.Build like any user's.
func buildTraced(src string, opts pipeline.Options, tr *tracer, m *metricSet) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var (
		tree *ast.Program
		info *types.Info
		irp  *ir.Program
		anal *gcanal.Result
		prog *code.Program
		err  error
	)
	parse := tr.span(layerMlang, "parser.Parse", func() { tree, err = parser.Parse(src) })
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	check := tr.span(layerMlang, "types.Check", func() { info, err = types.Check(tree) })
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	exh := tr.span(layerMlang, "exhaust.Check", func() { exhaust.Check(tree, info) })
	low := tr.span(layerCompile, "lower.Lower", func() { irp, err = lower.Lower(tree, info) })
	if err != nil {
		return fmt.Errorf("lower: %w", err)
	}
	ana := tr.span(layerCompile, "gcanal.Analyze", func() { anal = gcanal.Analyze(irp) })
	gen := tr.span(layerCompile, "codegen.CompileWith", func() {
		prog, err = codegen.CompileWith(irp, opts.Strategy.CompatibleRepr(), nil)
	})
	if err != nil {
		return fmt.Errorf("codegen: %w", err)
	}
	runtime.ReadMemStats(&ms1)

	// The tagged representation from a fresh IR, so neither code
	// generation sees what the other left behind.
	irp2, _, err := pipeline.Frontend(src)
	if err != nil {
		return fmt.Errorf("frontend: %w", err)
	}
	gcanal.Analyze(irp2)
	genTagged := tr.span(layerCompile, "codegen.CompileWith(tagged)", func() {
		_, err = codegen.CompileWith(irp2, gc.StratTagged.CompatibleRepr(), nil)
	})
	if err != nil {
		return fmt.Errorf("codegen tagged: %w", err)
	}

	m.set("mlang.parse_s", parse.Seconds())
	m.set("mlang.check_s", check.Seconds())
	m.set("mlang.exhaust_s", exh.Seconds())
	m.set("mlang.source_kb", float64(len(src))/1024)
	m.ratio("mlang.parse_mb_per_s", float64(len(src))/(1<<20), parse.Seconds())
	m.set("compile.build_s", (parse + check + low + ana + gen).Seconds())
	m.set("compile.lower_s", low.Seconds())
	m.set("compile.gcanal_s", ana.Seconds())
	m.set("compile.codegen_s", gen.Seconds())
	m.set("compile.codegen_tagged_s", genTagged.Seconds())
	m.count("compile.ir_funcs", int64(len(irp.Funcs)))
	m.count("compile.sites", int64(anal.Stats.Sites))
	m.count("compile.sites_elided", int64(anal.Stats.ElidedSites+anal.Stats.ElidedClosSites))
	m.count("compile.desc_nodes", int64(prog.DescNodes))
	m.set("compile.host_alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))

	// The interpreted-descriptor strategy's metadata for the same source
	// (the paper's space comparison, E4).
	interp := opts
	interp.Strategy = gc.StratInterp
	iprog, _, err := pipeline.Build(src, interp)
	if err != nil {
		return fmt.Errorf("build interp: %w", err)
	}
	col, err := gc.New(iprog, heap.New(iprog.Repr, 16), gc.StratInterp)
	if err != nil {
		return fmt.Errorf("collector interp: %w", err)
	}
	m.count("gc.metadata_words_interp", col.MetadataSize)
	return nil
}

// runMetrics turns the traced run's counters into per-layer metrics.
func runMetrics(in *instance, s *sample, pool *pausePool, m *metricSet) {
	pause := s.pauseTotal()
	mutator := s.wall - pause

	m.count("compile.code_words", int64(s.codeWds))
	m.count("compile.gc_metadata_words", s.metaWds)

	if in.w.kind == kindVM || in.w.kind == kindCompile {
		m.count("vm.instructions", s.vm.Instructions)
		m.count("vm.calls", s.vm.Calls)
		m.count("vm.clos_calls", s.vm.ClosCalls)
		m.count("vm.allocations", s.vm.Allocations)
		m.count("vm.max_stack_words", int64(s.vm.MaxStackWords))
	}
	if in.w.kind == kindVM {
		m.set("vm.mutator_s", mutator.Seconds())
		m.ratio("vm.ns_per_instr", float64(mutator.Nanoseconds()), float64(s.vm.Instructions))
	}
	if in.w.kind == kindTasks || in.w.kind == kindServe {
		t := s.task
		m.count("tasking.instructions", t.Instructions)
		m.set("tasking.mutator_s", mutator.Seconds())
		m.ratio("tasking.ns_per_instr", float64(mutator.Nanoseconds()), float64(t.Instructions))
		m.count("tasking.rgc_checks", t.RgcChecks)
		m.count("tasking.collections", t.Collections)
		lat := append([]int64(nil), t.SuspendLatency...)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		m.count("tasking.suspend_latency_p50_instr", stats.Percentile(lat, 0.5))
		m.count("tasking.suspend_latency_max_instr", stats.Percentile(lat, 1))
		m.count("tasking.shard_minors", t.ShardMinors)
		m.count("tasking.shard_overlap_tasks", t.ShardMinorOverlapTasks)
		m.count("tasking.shard_exposures", t.ShardExposures)
	}

	h := s.heap
	m.count("heap.allocations", h.Allocations)
	m.count("heap.words_allocated", h.WordsAllocated)
	m.count("heap.words_copied", h.WordsCopied)
	m.count("heap.peak_live_words", h.PeakLive)
	m.count("heap.collections", h.Collections)
	m.count("heap.minor_collections", h.MinorCollections)
	m.count("heap.promoted_words", h.PromotedWords)
	m.count("heap.freelist_hits", h.FreeListHits)
	m.ratio("heap.shared_allocs_per_alloc", float64(h.SharedAllocs), float64(h.Allocations))
	m.count("heap.tlab_refills", h.TLABRefills)
	m.count("heap.tlab_waste_words", h.TLABWasteWords)
	m.count("heap.growths", h.Growths)

	g := s.gc
	m.count("gc.collections", g.Collections)
	m.count("gc.pause_samples", int64(len(pool.all)))
	m.set("gc.pause_total_s", pause.Seconds())
	m.set("gc.pause_p50_us", percentileUS(pool.all, 0.50))
	m.set("gc.pause_p90_us", percentileUS(pool.all, 0.90))
	m.set("gc.pause_p99_us", percentileUS(pool.all, 0.99))
	m.set("gc.pause_max_us", percentileUS(pool.all, 1))
	m.set("gc.minor_pause_p50_us", percentileUS(pool.minor, 0.50))
	m.set("gc.major_pause_p50_us", percentileUS(pool.major, 0.50))
	m.count("gc.frames_traced", g.FramesTraced)
	m.count("gc.slots_traced", g.SlotsTraced)
	m.count("gc.objects_copied", g.ObjectsCopied)
	m.count("gc.words_visited", h.WordsCopied)
	m.ratio("gc.ns_per_word_visited", float64(pause.Nanoseconds()), float64(h.WordsCopied))
	m.ratio("gc.plan_hit_ratio", float64(g.PlanHits), float64(g.PlanHits+g.PlanMisses))
	m.ratio("gc.site_cache_hit_ratio", float64(g.SiteCacheHits), float64(g.SiteCacheHits+g.SiteCacheMisses))
	m.ratio("gc.kernel_word_share", float64(g.KernelWords), float64(h.WordsCopied))
	m.count("gc.typegc_built", g.TypeGCBuilt)
	m.count("gc.barrier_hits", s.gen.BarrierHits)
	m.count("gc.remembered_peak", s.gen.RememberedPeak)
	m.count("gc.ladder_recovered", s.resil.LadderRecovered)
	m.count("gc.ladder_exhausted", s.resil.LadderExhausted)

	if in.w.kind == kindServe {
		st := s.serve
		m.count("serve.requests", st.Requests)
		m.count("serve.arrivals", st.Arrivals)
		m.count("serve.admitted", st.Admitted)
		m.count("serve.completed", st.Completed)
		m.count("serve.shed", st.Shed)
		m.count("serve.shed_heap", st.ShedHeap)
		m.count("serve.retries", st.Retries)
		m.count("serve.dropped", st.Dropped)
		m.count("serve.canceled", st.Canceled)
		m.count("serve.faulted", st.Faulted)
		m.count("serve.forced_majors", st.ForcedMajors)
		m.count("serve.steps", s.steps)
		m.ratio("serve.ns_per_step", float64(s.wall.Nanoseconds()), float64(s.steps))
		m.ratio("serve.goodput_rps", float64(st.Completed-st.WrongResults), s.wall.Seconds())
		ksteps := func(p float64) float64 { return float64(stats.Percentile(s.latencies, p)) / 1e3 }
		m.set("serve.latency_p50_ksteps", ksteps(0.50))
		m.set("serve.latency_p99_ksteps", ksteps(0.99))
		m.set("serve.latency_p999_ksteps", ksteps(0.999))
		m.set("serve.latency_max_ksteps", ksteps(1))
	}
}

// probeCollector captures the root set at the run's first stop-the-world
// collection, then times the collector's two halves on it directly:
// ResolveRoots is the pure metadata half, Collect the whole, trace the rest.
// A workload that never collects leaves the three metrics 0.
func probeCollector(in *instance, tr *tracer, m *metricSet) error {
	if in.w.kind == kindCompile {
		return nil
	}
	g, entries, err := pipeline.BuildTaskGroup(in.p.source, in.p.entries, in.opts)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	for _, e := range entries {
		g.Spawn(e)
	}
	if err := g.RunInit(); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	roots, pending, err := g.RunUntilCollection()
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	if !pending {
		return nil
	}
	// Batches by turns, the fastest batch of each: a burst of noise on the
	// box then cannot land on one half alone (trace is a difference).
	resolve, collect := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < probeRounds; round++ {
		resolve = min(resolve, tr.span(layerGC, "Collector.ResolveRoots", func() {
			for i := 0; i < probeResolves; i++ {
				g.Col.ResolveRoots(roots)
			}
		}))
		collect = min(collect, tr.span(layerGC, "Collector.Collect", func() {
			for i := 0; i < probeCollects; i++ {
				g.Col.Collect(roots, g.Globals)
			}
		}))
	}
	resolveUS := float64(resolve.Nanoseconds()) / 1e3 / probeResolves
	collectUS := float64(collect.Nanoseconds()) / 1e3 / probeCollects
	m.set("gc.probe_resolve_us", resolveUS)
	m.set("gc.probe_collect_us", collectUS)
	m.set("gc.probe_trace_us", max(0, collectUS-resolveUS))
	return nil
}

// probeAllocator times Heap.Alloc alone: objects of the run's mean size on
// a fresh heap of the run's discipline, big enough never to collect.
func probeAllocator(in *instance, s *sample, tr *tracer, m *metricSet) {
	if s.heap.Allocations == 0 {
		return
	}
	fields := max(1, int(s.heap.WordsAllocated/s.heap.Allocations))
	repr := in.opts.Strategy.CompatibleRepr()
	words := probeAllocs * (fields + 2)
	h := heap.New(repr, words)
	if in.opts.MarkSweep {
		h = heap.NewMarkSweep(repr, words)
	}
	var err error
	d := tr.span(layerHeap, "Heap.Alloc", func() {
		for i := 0; i < probeAllocs && err == nil; i++ {
			_, err = h.Alloc(fields)
		}
	})
	if err == nil {
		m.set("heap.alloc_ns", float64(d.Nanoseconds())/probeAllocs)
	}
}

// compareStrategies runs a small sibling of the workload under all four
// collection strategies, every value checked against the Go reference: the
// paper's like-for-like rows (E2's tag-strip cost, E4/E6's collection cost).
// Left 0: combinations the runtime refuses by design (tagged with mark/sweep
// or a nursery), and Appel on serve — without liveness its frames keep every
// dead list reachable, four heavy requests outgrow the 4k-word heap and
// fault, and a row with failed work is not like-for-like.
func compareStrategies(w workload, seed int64, cfg config, m *metricSet, res *result) error {
	if w.kind == kindCompile {
		return nil
	}
	for _, strat := range pipeline.Strategies {
		opts := w.opts
		opts.Strategy = strat
		if strat == gc.StratTagged && (opts.MarkSweep || opts.NurseryWords > 0) ||
			strat == gc.StratAppel && w.kind == kindServe {
			continue
		}
		in, err := newInstance(w, seed, cfg.scale*strategyScale, opts, nil)
		if err != nil {
			return fmt.Errorf("strategy %s: %w", strat, err)
		}
		s, err := in.run(nil)
		if err != nil {
			return fmt.Errorf("strategy %s: %w", strat, err)
		}
		res.tally(s)
		m.set("gc.pause_total_s_"+strat.String(), s.pauseTotal().Seconds())
		if w.kind == kindVM && (strat == gc.StratCompiled || strat == gc.StratTagged) {
			m.set("vm.mutator_s_"+strat.String(), (s.wall - s.pauseTotal()).Seconds())
		}
	}
	return nil
}

// pausePool pools collection pauses across repeats.
type pausePool struct{ all, minor, major []int64 }

func (p *pausePool) add(pauses []pause) {
	for _, r := range pauses {
		p.all = append(p.all, r.ns)
		switch r.kind {
		case "minor":
			p.minor = append(p.minor, r.ns)
		case "major":
			p.major = append(p.major, r.ns)
		}
	}
}

func percentileUS(ns []int64, p float64) float64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(stats.Percentile(s, p)) / 1e3
}

package experiments

// The pause harness behind E10 and E11: repeated collections of one root set
// captured mid-execution, so a pause is measured apart from the mutator that
// led to it. E10 splits each pause into its metadata-resolution and trace
// halves — the breakdown that motivates the collection fast path (frame-plan
// cache, pc→site cache, specialized kernels; internal/gc/fastpath.go); E11
// sets minor against full pauses of the same roots. Whole-run cost is the
// repository benchmark's question (benchmark/, BENCHMARK.json).

import (
	"fmt"
	"sort"
	"time"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/stats"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// pauseRun is one E10 measurement: Collections repeated gc.Collect calls on
// one captured root set.
type pauseRun struct {
	PauseP50NS    int64
	ResolveMeanNS int64
	PlanHits      int64
	PlanMisses    int64
	KernelWords   int64
}

// minorRun is one E11 measurement. The pause percentiles come from repeated
// minor then full collections of the same captured root set on a nursery
// heap with a tenured resident set, so the two distributions differ only in
// how far past the young/old boundary each trace walks. The generational
// counters come from a separate end-to-end run of the same workload, where
// the mutator actually drives the write barrier.
type minorRun struct {
	Discipline       string // "copying" or "mark/sweep"
	MinorP50NS       int64
	FullP50NS        int64
	MinorCollections int64
	MajorCollections int64
	MinorSurvivorPct float64
	PromotedWords    int64
	BarrierHits      int64
	RememberedPeak   int64
}

// benchGroup compiles a task workload and schedules it to its first
// pending collection, returning the group and the captured root set —
// repeated Collect calls on those roots are the pause benchmark.
// nurseryWords > 0 puts a generational nursery in front of the heap.
func benchGroup(w workloads.TaskWorkload, ms bool, nurseryWords int) (*tasking.Group, []gc.TaskRoots) {
	hw := w.HeapWords
	if ms {
		hw *= 2 // one space with the words of copying's two
	}
	g, entries, err := pipeline.BuildTaskGroup(w.Source, w.Entries, pipeline.Options{
		Strategy: gc.StratCompiled, HeapWords: hw, MarkSweep: ms, NurseryWords: nurseryWords})
	if err != nil {
		panic(fmt.Sprintf("bench %s: %v", w.Name, err))
	}
	for _, e := range entries {
		g.Spawn(e)
	}
	if err := g.RunInit(); err != nil {
		panic(fmt.Sprintf("bench %s: %v", w.Name, err))
	}
	roots, pending, err := g.RunUntilCollection()
	if err != nil {
		panic(fmt.Sprintf("bench %s: %v", w.Name, err))
	}
	if !pending {
		panic(fmt.Sprintf("bench %s: finished without collecting", w.Name))
	}
	return g, roots
}

// collectPauseRun measures `collections` repeated collections of one
// captured root set on a copying heap under the given knobs, plus the mean
// cost of the pure resolution half (Collector.ResolveRoots).
func collectPauseRun(w workloads.TaskWorkload, fast bool, collections int) pauseRun {
	g, roots := benchGroup(w, false, 0)
	g.Col.DisableFastPath = !fast
	for i := 0; i < collections; i++ {
		g.Col.Collect(roots, g.Globals)
	}
	recs := g.Col.Telem.Records
	recs = recs[len(recs)-collections:]
	pauses := make([]int64, len(recs))
	for i, r := range recs {
		pauses[i] = r.PauseNS
	}

	const resolveReps = 400
	start := time.Now()
	for i := 0; i < resolveReps; i++ {
		g.Col.ResolveRoots(roots)
	}
	resolveNS := time.Since(start).Nanoseconds() / resolveReps

	st := g.Col.Stats
	return pauseRun{
		PauseP50NS:    median(pauses),
		ResolveMeanNS: resolveNS,
		PlanHits:      st.PlanHits,
		PlanMisses:    st.PlanMisses,
		KernelWords:   st.KernelWords,
	}
}

// median sorts a pause sample and returns its p50.
func median(pauses []int64) int64 {
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	return stats.Percentile(pauses, 0.50)
}

// benchNurseryWords sizes the bench nursery: small enough that minors are
// bounded by a fraction of the heap, large enough to hold a scheduling
// quantum's allocation.
const benchNurseryWords = 256

// withResident prepends a long-lived global list of `cells` cons cells to
// a workload. The list tenures during initialization, giving the old
// region the resident set a long-running program accumulates: the graph
// every full collection must re-trace and every minor collection skips.
// Without it the churn workloads' old regions are nearly empty and minor
// and full pauses both degenerate to the shared stack re-trace.
func withResident(w workloads.TaskWorkload, cells int) workloads.TaskWorkload {
	w.Source = fmt.Sprintf(`
let rec bench_resident_build n = if n = 0 then [] else n :: bench_resident_build (n - 1)
let bench_resident = bench_resident_build %d
`, cells) + w.Source
	return w
}

// minorPauseRun measures the generational pause split. The percentiles
// come from `collections` repeated minor collections, then `collections`
// repeated full collections, of one captured mid-execution root set over
// a tenured resident list of HeapWords/2 words. Both kinds trace every
// frame of every task stack (the paper's frame routines are the shared
// cost); the minor trace stops at the young/old boundary while the full
// trace walks the whole live old region. The generational counters come
// from a separate end-to-end run, where the mutator drives the barrier.
func minorPauseRun(w workloads.TaskWorkload, ms bool, collections int) minorRun {
	residentCells := w.HeapWords / 4 // 2 words per cons cell
	g, roots := benchGroup(withResident(w, residentCells), ms, benchNurseryWords)
	for i := 0; i < collections; i++ {
		g.Col.Collect(roots, g.Globals)
	}
	if g.Col.Gen.MinorCollections < int64(collections) {
		panic(fmt.Sprintf("bench %s: remembered set poisoned, only %d of %d minors ran",
			w.Name, g.Col.Gen.MinorCollections, collections))
	}
	for i := 0; i < collections; i++ {
		g.Col.CollectFull(roots, g.Globals)
	}
	var minors, fulls []int64
	for _, r := range g.Col.Telem.Records {
		switch r.Kind {
		case "minor":
			minors = append(minors, r.PauseNS)
		case "major":
			fulls = append(fulls, r.PauseNS)
		}
	}

	// End-to-end run for the mutator-driven counters: minor/major mix,
	// survival rate, promotion volume, write-barrier traffic.
	res, err := pipeline.RunTasks(w.Source, w.Entries, pipeline.Options{
		Strategy:     gc.StratCompiled,
		HeapWords:    w.HeapWords,
		MarkSweep:    ms,
		NurseryWords: benchNurseryWords,
		MaxSteps:     2_000_000_000,
	})
	if err != nil {
		panic(fmt.Sprintf("bench %s: %v", w.Name, err))
	}
	var nMinor, nMajor, promoted, barriers, remPeak int64
	var survSum float64
	for _, r := range res.Telemetry.Records {
		switch r.Kind {
		case "minor":
			nMinor++
			survSum += r.SurvivorPct
		case "major":
			nMajor++
		}
		promoted += r.PromotedWords
		barriers += r.BarrierHits
		if int64(r.Remembered) > remPeak {
			remPeak = int64(r.Remembered)
		}
	}
	survPct := 0.0
	if nMinor > 0 {
		survPct = survSum / float64(nMinor)
	}

	discipline := "copying"
	if ms {
		discipline = "mark/sweep"
	}
	return minorRun{
		Discipline:       discipline,
		MinorP50NS:       median(minors),
		FullP50NS:        median(fulls),
		MinorCollections: nMinor,
		MajorCollections: nMajor,
		MinorSurvivorPct: survPct,
		PromotedWords:    promoted,
		BarrierHits:      barriers,
		RememberedPeak:   remPeak,
	}
}

// benchCollections is the repeated-Collect count per pause run: enough
// for a stable p50 without making the tables crawl.
const benchCollections = 150

// ---------------------------------------------------------------------------
// E10 — the pause breakdown.
// ---------------------------------------------------------------------------

// E10FastPath splits the compiled strategy's pause into its
// metadata-resolution and trace halves, cached (fast path) against
// uncached (oracle). The uncached
// resolution share is the cost the paper's per-frame protocol pays every
// collection; the cached column is what remains once frame plans, site
// lookups and kernels are memoized across frames and collections.
func E10FastPath() *Table {
	t := &Table{
		ID:    "E10",
		Title: "collection fast path: pause breakdown, cached vs uncached",
		Claim: "compiled-mode pauses are dominated by re-deriving per-frame metadata that is invariant across frames and collections; memoizing it shrinks the pause without changing a single heap word",
		Header: []string{"workload", "pause/GC uncached", "pause/GC cached", "speedup",
			"resolve uncached", "resolve cached", "plan hit%", "kernel words/GC"},
	}
	for _, w := range workloads.Tasking {
		oracle := collectPauseRun(w, false, benchCollections)
		fast := collectPauseRun(w, true, benchCollections)
		hitPct := "-"
		if fast.PlanHits+fast.PlanMisses > 0 {
			hitPct = fmt.Sprintf("%.1f", 100*float64(fast.PlanHits)/float64(fast.PlanHits+fast.PlanMisses))
		}
		t.Rows = append(t.Rows, []string{
			w.Name,
			fmt.Sprint(oracle.PauseP50NS),
			fmt.Sprint(fast.PauseP50NS),
			ratio(oracle.PauseP50NS, fast.PauseP50NS),
			fmt.Sprint(oracle.ResolveMeanNS),
			fmt.Sprint(fast.ResolveMeanNS),
			hitPct,
			fmt.Sprint(fast.KernelWords / int64(benchCollections)),
		})
	}
	t.Notes = append(t.Notes,
		"pause/GC is the p50 of 150 repeated collections of one captured mid-execution root set (copying discipline)",
		"resolve is the mean of the pure metadata half (Collector.ResolveRoots): frame chains, site lookups, type-argument resolution, plan builds — no tracing",
		"taskdeep is the motivating shape: a deep tower of one polymorphic frame, where every frame hits the same memoized plan",
		"the fast path is compiled-strategy only: interp keeps its decode-per-collection cost (E4's trade-off) and Appel its chain re-walks (E6) by design",
	)
	return t
}

// ---------------------------------------------------------------------------
// E11 — the generational pause split.
// ---------------------------------------------------------------------------

// E11Generational compares minor against full collection pauses of the
// same captured root set under both disciplines. Both traces run the same
// frame routines over the same stacks; the minor one returns old objects
// untouched at the young/old boundary and takes interior old→young edges
// from the typed remembered set instead of walking the tenured graph.
func E11Generational() *Table {
	t := &Table{
		ID:    "E11",
		Title: "generational nursery: minor vs full collection pause",
		Claim: "the paper's frame routines price a whole-stack re-trace low enough that a nursery needs no card tables or stack barriers — minors re-run the routines and stop at the old-region boundary",
		Header: []string{"workload", "discipline", "minor p50", "full p50", "minor/full",
			"minors", "majors", "surv%/minor", "promoted words", "barrier hits", "remembered peak"},
	}
	for _, w := range workloads.Tasking {
		for _, ms := range []bool{false, true} {
			r := minorPauseRun(w, ms, benchCollections)
			t.Rows = append(t.Rows, []string{
				w.Name,
				r.Discipline,
				fmt.Sprint(r.MinorP50NS),
				fmt.Sprint(r.FullP50NS),
				ratio(r.MinorP50NS, r.FullP50NS),
				fmt.Sprint(r.MinorCollections),
				fmt.Sprint(r.MajorCollections),
				fmt.Sprintf("%.1f", r.MinorSurvivorPct),
				fmt.Sprint(r.PromotedWords),
				fmt.Sprint(r.BarrierHits),
				fmt.Sprint(r.RememberedPeak),
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("pauses: %d repeated minors then %d repeated fulls of one captured mid-execution root set, nursery 2×%d words, every survivor promoted, over a tenured resident list of HeapWords/2 words — the long-lived graph a real program accumulates, which fulls re-trace and minors skip",
			benchCollections, benchCollections, benchNurseryWords),
		"both kinds re-trace every frame of every task stack — the pause delta is exactly the tenured graph a minor skips",
		"minors/majors/surv%/promoted/barrier columns come from a separate end-to-end run where the mutator drives the write barrier; taskmutate repoints long-lived ref cells at fresh nursery lists, so its barrier traffic is the remembered set earning its keep",
		"mark/sweep minors still evacuate the nursery by copying; only the old region is swept in place",
	)
	return t
}

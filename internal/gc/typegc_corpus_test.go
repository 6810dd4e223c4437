package gc_test

// Node-resident components over the corpus. A TypeGC node owns the routines
// of its components (dataG.ctor, Collector.captures in typegc.go), resolved
// once; these tests run the single-task and task corpora under the two
// strategies that read the cached routines and check, after every run, that
// each cached routine is pointer-identical to a fresh descriptor resolution
// (gc.CheckComponents, typegc_test.go) and that caching built exactly the
// nodes per-object resolution built — builtAtParent pins builder.Built per
// program and strategy as measured at the commit before the caches.

import (
	"fmt"
	"runtime"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// builtAtParent is {compiled, appel} per single-task program, and per task
// program {copying, mark/sweep} × {compiled, appel}: the set of nodes ever
// built is determined by the program and where its collections fall (the
// mark/sweep runs use a doubled heap, which moves taskpoly's), never by
// which walker touched a type first.
var builtAtParent = map[string][2]int64{
	"fib": {0, 0}, "tak": {0, 0}, "listchurn": {2, 2}, "btree": {2, 2}, "nqueens": {2, 2},
	"qsort": {2, 3}, "sieve": {2, 2}, "polypipe": {8, 11}, "closures": {5, 5}, "evaluator": {2, 2},
	"mutate": {4, 4}, "deeppoly": {2, 4}, "cps": {3, 3}, "thunks": {4, 4},
}

var taskBuiltAtParent = map[string][2][2]int64{
	"taskchurn": {{2, 2}, {2, 2}}, "tasktree": {{2, 2}, {2, 2}}, "taskpoly": {{5, 5}, {3, 4}},
	"taskmutate": {{4, 4}, {4, 4}}, "taskdeep": {{5, 5}, {5, 5}}, "taskspine": {{4, 4}, {4, 4}},
	"taskserve": {{2, 2}, {2, 2}},
}

var componentStrategies = []gc.Strategy{gc.StratCompiled, gc.StratAppel}

func checkBuilt(t *testing.T, col *gc.Collector, want int64, pinned bool) {
	t.Helper()
	if err := gc.CheckComponents(col); err != nil {
		t.Fatal(err)
	}
	if !pinned {
		t.Fatalf("no pinned node count for this program (measured %d)", col.Stats.TypeGCBuilt)
	}
	if col.Stats.TypeGCBuilt != want {
		t.Fatalf("%v built %d nodes, the parent built %d", col.Strat, col.Stats.TypeGCBuilt, want)
	}
}

func TestComponentsMatchResolutionSingleTask(t *testing.T) {
	for _, w := range workloads.All {
		for si, strat := range componentStrategies {
			t.Run(fmt.Sprintf("%s/%v", w.Name, strat), func(t *testing.T) {
				prog, _, err := pipeline.Build(w.Source, pipeline.Options{Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				m, err := tasking.NewGroup(prog, w.HeapWords, strat, nil)
				if err != nil {
					t.Fatal(err)
				}
				m.Col.Verify = true
				raw, err := m.RunMain()
				if err != nil {
					t.Fatal(err)
				}
				if got := code.DecodeInt(prog.Repr, raw); got != w.Expect {
					t.Fatalf("result %d, want %d", got, w.Expect)
				}
				want, pinned := builtAtParent[w.Name]
				checkBuilt(t, m.Col, want[si], pinned)
			})
		}
	}
}

// TestComponentsMatchResolutionTasks also crosses the heap disciplines.
func TestComponentsMatchResolutionTasks(t *testing.T) {
	for _, w := range workloads.Tasking {
		for si, strat := range componentStrategies {
			for mi, ms := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/ms=%v", w.Name, strat, ms), func(t *testing.T) {
					want, pinned := taskBuiltAtParent[w.Name]
					checkBuilt(t, runGroupCollector(t, w, strat, ms), want[mi][si], pinned)
				})
			}
		}
	}
}

// runGroupCollector runs a task workload to completion with the verifier on
// and returns its collector.
func runGroupCollector(t *testing.T, w workloads.TaskWorkload, strat gc.Strategy, ms bool) *gc.Collector {
	t.Helper()
	opts := pipeline.Options{Strategy: strat, HeapWords: w.HeapWords, MarkSweep: ms, VerifyHeap: true}
	if ms {
		opts.HeapWords = 2 * w.HeapWords
	}
	g, entries, err := pipeline.BuildTaskGroup(w.Source, w.Entries, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		g.Spawn(e)
	}
	if err := g.RunInit(); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	for i, task := range g.Tasks {
		if got := code.DecodeInt(g.Prog.Repr, task.Result); got != w.Expect[i] {
			t.Fatalf("task %d result %d, want %d", i, got, w.Expect[i])
		}
	}
	return g.Col
}

// TestMinorCollectionsAllocatePerCollection is the end-to-end half of the
// allocation guard (typegc_test.go has the per-shape half): a run of
// taskmutate whose minors re-trace a populated remembered set may make a
// constant's worth of host allocations per collection — frame chains, the
// scan table, the telemetry record — and none per object copied. The
// mutator's own allocations (stack growth) are counted in, so the ceiling
// is on the whole run.
func TestMinorCollectionsAllocatePerCollection(t *testing.T) {
	w, ok := workloads.TaskByName("taskmutate")
	if !ok {
		t.Fatal("taskmutate workload missing")
	}
	g, entries, err := pipeline.BuildTaskGroup(w.Source, w.Entries,
		pipeline.Options{Strategy: gc.StratCompiled, HeapWords: 4 * w.HeapWords, NurseryWords: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		g.Spawn(e)
	}
	if err := g.RunInit(); err != nil {
		t.Fatal(err)
	}
	allocs := mallocs(func() { err = g.Run() })
	if err != nil {
		t.Fatal(err)
	}
	const perCollection = 64
	st, gen := g.Col.Stats, g.Col.Gen
	t.Logf("%d host allocations over %d collections (%d minor) copying %d objects, remembered peak %d",
		allocs, st.Collections, gen.MinorCollections, st.ObjectsCopied, gen.RememberedPeak)
	if gen.MinorCollections == 0 || gen.RememberedPeak == 0 || st.ObjectsCopied < 4*perCollection*st.Collections {
		t.Fatalf("run does not exercise the guard: %+v %+v", st, gen)
	}
	if allocs > uint64(perCollection*st.Collections) {
		t.Fatalf("%d host allocations over %d collections copying %d objects: more than %d per collection",
			allocs, st.Collections, st.ObjectsCopied, perCollection)
	}
}

// mallocs counts the host allocations f makes.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

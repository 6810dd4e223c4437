package gc_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"tagfree/internal/gc"
	"tagfree/internal/heap"
	"tagfree/internal/pipeline"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// TestSuspendedCallArgsTracedOnce is the regression test for a latent
// sequential-collector bug the differential suite exposed: a task
// suspended at a call has its staged argument slots traced through the
// site's argument map, and Appel mode's trace-everything slot walk
// already covers those slots. Tracing a slot twice in a copying
// collection dereferences the to-space pointer the first trace wrote
// there — an out-of-bounds forwarding lookup and a crash. The fix traces
// each slot at most once per frame.
func TestSuspendedCallArgsTracedOnce(t *testing.T) {
	w, ok := workloads.TaskByName("taskpoly")
	if !ok {
		t.Fatal("taskpoly workload missing")
	}
	res, err := pipeline.RunTasks(w.Source, w.Entries, pipeline.Options{
		Strategy:  gc.StratAppel,
		HeapWords: w.HeapWords,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range w.Expect {
		if res.Values[i] != e {
			t.Fatalf("task %d = %d, want %d", i, res.Values[i], e)
		}
	}
}

// runGroupTo runs a task workload to completion with gc_words kept, under
// both verifiers if verify, and returns the finished group.
func runGroupTo(t *testing.T, w workloads.TaskWorkload, strat gc.Strategy, ms, verify bool) *tasking.Group {
	t.Helper()
	prog, _, err := pipeline.Build(w.Source, pipeline.Options{Strategy: strat, DisableGCWordElision: true})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]int, len(w.Entries))
	for i, name := range w.Entries {
		if entries[i] = prog.FuncByName(name); entries[i] < 0 {
			t.Fatalf("no function %s", name)
		}
	}
	var g *tasking.Group
	if ms {
		g, err = tasking.NewGroupWith(prog, heap.NewMarkSweep(prog.Repr, 2*w.HeapWords), strat, entries)
	} else {
		g, err = tasking.NewGroup(prog, w.HeapWords, strat, entries)
	}
	if err != nil {
		t.Fatal(err)
	}
	g.Col.Verify = verify
	g.Heap.SetVerify(verify)
	if err := g.RunInit(); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Stats.Collections == 0 {
		t.Fatalf("no collections — workload exerts no heap pressure")
	}
	return g
}

// TestCollectionHistoryDeterministic runs every task workload twice per
// strategy and discipline and requires every heap word and every work
// counter to repeat. The collector's caches (frame plans, memoized frame
// edges, per-site routines) are maps filled as stacks are met; the trace
// order must come from the stacks alone, never from a map's iteration order.
func TestCollectionHistoryDeterministic(t *testing.T) {
	for _, w := range workloads.Tasking {
		for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratInterp, gc.StratAppel} {
			for _, ms := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/ms=%v", w.Name, strat, ms), func(t *testing.T) {
					a, b := runGroupTo(t, w, strat, ms, false), runGroupTo(t, w, strat, ms, false)
					for i := range a.Tasks {
						if a.Tasks[i].Result != b.Tasks[i].Result {
							t.Fatalf("task %d diverges: %v, then %v", i, a.Tasks[i].Result, b.Tasks[i].Result)
						}
					}
					if mem := a.Heap.MemSnapshot(); !slices.Equal(mem, b.Heap.MemSnapshot()) {
						t.Fatalf("heap images diverge (%d words)", len(mem))
					}
					s, r := a.Col.Stats, b.Col.Stats
					for _, c := range []struct {
						name string
						a, b int64
					}{
						{"FramesTraced", s.FramesTraced, r.FramesTraced},
						{"SlotsTraced", s.SlotsTraced, r.SlotsTraced},
						{"ObjectsCopied", s.ObjectsCopied, r.ObjectsCopied},
						{"KernelWords", s.KernelWords, r.KernelWords},
						{"DescBytesDecoded", s.DescBytesDecoded, r.DescBytesDecoded},
						{"ChainSteps", s.ChainSteps, r.ChainSteps},
						{"Heap.WordsCopied", a.Heap.Stats.WordsCopied, b.Heap.Stats.WordsCopied},
					} {
						if c.a != c.b {
							t.Errorf("%s: %d, then %d", c.name, c.a, c.b)
						}
					}
				})
			}
		}
	}
}

// manyTasksSrc spawns eight churn tasks with distinct offsets; under a tiny
// heap every scheduling turn is near a collection, so each collection walks
// eight suspended stacks.
const manyTasksSrc = `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let round () = sum (upto 20)
let rec work rounds acc =
  if rounds = 0 then acc
  else work (rounds - 1) (acc + round ())
let t0 () = work 25 0
let t1 () = work 25 100
let t2 () = work 25 200
let t3 () = work 25 300
let t4 () = work 25 400
let t5 () = work 25 500
let t6 () = work 25 600
let t7 () = work 25 700
`

// TestManyTasksTinyHeap runs eight tasks over a tiny heap with the verifier
// on, for every strategy and discipline.
func TestManyTasksTinyHeap(t *testing.T) {
	entries := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratInterp, gc.StratAppel} {
		for _, ms := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/ms=%v", strat, ms), func(t *testing.T) {
				res, err := pipeline.RunTasks(manyTasksSrc, entries, pipeline.Options{
					Strategy:   strat,
					HeapWords:  2048,
					MarkSweep:  ms,
					VerifyHeap: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range entries {
					if want := int64(25*210 + i*100); res.Values[i] != want {
						t.Fatalf("task %d = %d, want %d", i, res.Values[i], want)
					}
				}
				if res.Stats.Collections == 0 {
					t.Fatal("no collections under a tiny heap")
				}
			})
		}
	}
}

// TestReferenceResolver runs the single-task corpus (main the group's one
// task), the task corpus and testdata/progs (envedge.ml on a 256-word heap)
// under the compiled and interp strategies and — all but the deepest
// programs — Appel's, both disciplines, without and with a nursery, without
// and with allocation buffers (all but the deepest) and both suspension
// policies, with the heap verifier on: at every collection — minors
// included — it holds taskJobs to the reference resolver (reference.go) job
// for job and walks the reference's roots, and a mismatch panics with a
// *VerifyError naming the task and the job.
// Every 53rd allocation fails on purpose, so collections also land inside
// short frames heap exhaustion never stops in (a thunk's body); the period
// must not divide a corpus loop's allocations per round, or the failures
// land at the same sites every round.
func TestReferenceResolver(t *testing.T) {
	progs := slices.Clone(workloads.Tasking)
	for _, w := range workloads.All {
		progs = append(progs, workloads.TaskWorkload{Name: w.Name, Source: w.Source, Entries: []string{"main"}, HeapWords: w.HeapWords})
	}
	files, _ := filepath.Glob("../../testdata/progs/*.ml")
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p := workloads.TaskWorkload{Name: filepath.Base(f), Source: string(src), Entries: []string{"main"}, HeapWords: 2048}
		if p.Name == "envedge.ml" {
			p.Name, p.HeapWords = "envedge", 256
		}
		progs = append(progs, p)
	}
	// Appel's chain re-walk is quadratic in stack depth, and the deepest
	// single-task programs already take half the time: they run without
	// Appel's strategy and without buffers (listchurn's Appel cells alone
	// would take 30 s).
	deep := []string{"listchurn", "evaluator", "sieve"}
	minors := int64(0)
	for _, p := range progs {
		strats, tlabs := []gc.Strategy{gc.StratCompiled, gc.StratInterp, gc.StratAppel}, []int{0, 64}
		if slices.Contains(deep, p.Name) {
			strats, tlabs = strats[:2], tlabs[:1]
		}
		for c := range 8 * len(strats) * len(tlabs) {
			strat, tlab := strats[c/8/len(tlabs)], tlabs[c/8%len(tlabs)]
			opts := pipeline.Options{Strategy: strat, HeapWords: p.HeapWords, MarkSweep: c&2 != 0, NurseryWords: c >> 2 & 1 * 256,
				TLABWords: tlab, FailAllocEvery: 53, SuspendAtAllocs: c&1 != 0, VerifyHeap: true}
			t.Run(fmt.Sprintf("%s/%v/ms=%v/nursery=%d/tlab=%d/at-allocs=%v",
				p.Name, strat, opts.MarkSweep, opts.NurseryWords, opts.TLABWords, opts.SuspendAtAllocs), func(t *testing.T) {
				g, entries, err := pipeline.BuildTaskGroup(p.Source, p.Entries, opts)
				if err != nil {
					t.Fatal(err)
				}
				checked := int64(0)
				g.Col.PreCollect = func([]gc.TaskRoots) { checked++ }
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("collection %d: %v", g.Heap.Stats.Collections, r)
					}
				}()
				for _, e := range entries {
					g.Spawn(e)
				}
				if err := g.RunInit(); err != nil {
					t.Fatal(err)
				}
				if err := g.Run(); err != nil {
					t.Fatal(err)
				}
				if checked != g.Heap.Stats.Collections {
					t.Fatalf("%d collections, %d verified", g.Heap.Stats.Collections, checked)
				}
				minors += g.Col.Gen.MinorCollections
				refills := int64(0)
				for _, tk := range g.Tasks {
					refills += tk.TLAB.Refills
				}
				if opts.TLABWords == 0 && refills > 0 || opts.TLABWords > 0 && g.Heap.Stats.Collections > 0 && refills == 0 {
					t.Fatalf("%d buffer refills with tlab=%d over %d collections", refills, opts.TLABWords, g.Heap.Stats.Collections)
				}
			})
		}
	}
	if minors == 0 {
		t.Errorf("no minor collection verified")
	}
}

// TestResolveRootsLeavesCountersAlone stops taskpoly and taskdeep at their
// first collection under each typed strategy and resolves the stopped stacks
// with ResolveRoots, the benchmark's timed resolution: it must leave the
// collector's counters, its telemetry and the heap's counters as they were,
// and return as many roots as a Collect of the same stacks then traces.
func TestResolveRootsLeavesCountersAlone(t *testing.T) {
	for _, name := range []string{"taskpoly", "taskdeep"} {
		w, ok := workloads.TaskByName(name)
		if !ok {
			t.Fatalf("%s workload missing", name)
		}
		for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratInterp, gc.StratAppel} {
			t.Run(fmt.Sprintf("%s/%v", name, strat), func(t *testing.T) {
				g, entries, err := pipeline.BuildTaskGroup(w.Source, w.Entries, pipeline.Options{Strategy: strat, HeapWords: w.HeapWords})
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					g.Spawn(e)
				}
				if err := g.RunInit(); err != nil {
					t.Fatal(err)
				}
				roots, pending, err := g.RunUntilCollection()
				if err != nil || !pending {
					t.Fatalf("no collection to stop at: pending %v, %v", pending, err)
				}
				stats, telem, heapStats := g.Col.Stats, g.Col.Telem, g.Heap.Stats
				n := g.Col.ResolveRoots(roots)
				if !reflect.DeepEqual(g.Col.Stats, stats) || !reflect.DeepEqual(g.Col.Telem, telem) || g.Heap.Stats != heapStats {
					t.Fatalf("ResolveRoots moved a counter:\ncollector %+v, was %+v\nheap %+v, was %+v", g.Col.Stats, stats, g.Heap.Stats, heapStats)
				}
				g.Col.Collect(roots, g.Globals)
				if slots := g.Col.Stats.SlotsTraced - stats.SlotsTraced; n == 0 || int64(n) != slots {
					t.Fatalf("ResolveRoots resolved %d roots, the collection traced %d slots", n, slots)
				}
			})
		}
	}
}

// TestVerifierMovesNoCounter runs the task corpus under each typed strategy
// with the heap verifier off and on: the verifier checks the jobs the
// collection traced and resolves nothing through the collector, so every
// collector and heap counter but the pause time reads the same.
func TestVerifierMovesNoCounter(t *testing.T) {
	for _, w := range workloads.Tasking {
		for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratInterp, gc.StratAppel} {
			var runs [2]*pipeline.TaskResult
			for i := range runs {
				res, err := pipeline.RunTasks(w.Source, w.Entries, pipeline.Options{Strategy: strat, HeapWords: w.HeapWords, VerifyHeap: i == 1})
				if err != nil {
					t.Fatalf("%s/%v verify=%v: %v", w.Name, strat, i == 1, err)
				}
				res.GCStats.PauseNS = 0
				runs[i] = res
			}
			if runs[0].GCStats != runs[1].GCStats || runs[0].Heap != runs[1].Heap {
				t.Errorf("%s/%v: the verifier moved a counter:\noff %+v %+v\non  %+v %+v", w.Name, strat,
					runs[0].GCStats, runs[0].Heap, runs[1].GCStats, runs[1].Heap)
			}
		}
	}
}

package gc_test

import (
	"fmt"
	"os"
	"path/filepath"
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

// runGroupTo runs a task workload to completion with gc_words kept and
// returns the finished group.
func runGroupTo(t *testing.T, w workloads.TaskWorkload, strat gc.Strategy, ms bool) *tasking.Group {
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
					a, b := runGroupTo(t, w, strat, ms), runGroupTo(t, w, strat, ms)
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
// task), the task corpus and testdata/progs under the compiled and interp
// strategies and — all but the deepest programs — Appel's, both
// disciplines, without and with a nursery, without and with allocation
// buffers (all but the deepest) and both suspension policies, and at every
// collection — minors included — holds taskJobs to the reference resolver
// job for job.
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
		progs = append(progs, workloads.TaskWorkload{Name: filepath.Base(f), Source: string(src), Entries: []string{"main"}, HeapWords: 2048})
	}
	// Appel's chain re-walk is quadratic in stack depth, and the deepest
	// single-task programs already take half the time: they run without
	// Appel's strategy and without buffers (listchurn's Appel cells alone
	// would take 30 s).
	deep := []string{"listchurn", "evaluator", "sieve"}
	jobs, minors := 0, int64(0)
	for _, p := range progs {
		strats, tlabs := []gc.Strategy{gc.StratCompiled, gc.StratInterp, gc.StratAppel}, []int{0, 64}
		if slices.Contains(deep, p.Name) {
			strats, tlabs = strats[:2], tlabs[:1]
		}
		for c := range 8 * len(strats) * len(tlabs) {
			strat, tlab := strats[c/8/len(tlabs)], tlabs[c/8%len(tlabs)]
			opts := pipeline.Options{Strategy: strat, HeapWords: p.HeapWords, MarkSweep: c&2 != 0, NurseryWords: c >> 2 & 1 * 256,
				TLABWords: tlab, FailAllocEvery: 53}
			atAllocs := c&1 != 0
			t.Run(fmt.Sprintf("%s/%v/ms=%v/nursery=%d/tlab=%d/at-allocs=%v",
				p.Name, strat, opts.MarkSweep, opts.NurseryWords, opts.TLABWords, atAllocs), func(t *testing.T) {
				g, entries, err := pipeline.BuildTaskGroup(p.Source, p.Entries, opts)
				if err != nil {
					t.Fatal(err)
				}
				if atAllocs {
					g.Policy = tasking.SuspendAtAllocs
				}
				checked := int64(0)
				g.Col.PreCollect = func(tasks []gc.TaskRoots) {
					checked++
					for i, task := range tasks {
						want, err := referenceRoots(g.Prog, g.Heap, task, strat == gc.StratAppel)
						if err != nil {
							t.Fatalf("collection %d, stack %d: %v", g.Col.Stats.Collections, i, err)
						}
						got := g.Col.TaskJobs(task)
						for k := range max(len(got), len(want)) {
							if k >= min(len(got), len(want)) || fmt.Sprint(got[k]) != fmt.Sprint(want[k]) {
								t.Fatalf("collection %d, stack %d, job %d: taskJobs %v, reference %v",
									g.Col.Stats.Collections, i, k, got[min(k, len(got)):], want[min(k, len(want)):])
							}
						}
						jobs += len(want)
					}
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
				if checked != g.Heap.Stats.Collections {
					t.Fatalf("%d collections, %d held to the reference", g.Heap.Stats.Collections, checked)
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
	if jobs == 0 || minors == 0 {
		t.Errorf("%d jobs compared over %d minor collections, want both", jobs, minors)
	}
}

package gc_test

// Parallel-collection hardening: the parallel path must be free of data
// races (run these under `go test -race`), must produce heaps
// bit-identical to the sequential oracle's, and must be independent of the
// order workers claim task stacks in. The tests drive the real tasking
// runtime over the multi-task workload corpus rather than synthetic roots,
// so every strategy's full root-resolution path (frame chains, gc_word
// lookups, Appel chain walks, descriptor decoding) runs concurrently.

import (
	"fmt"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/heap"
	"tagfree/internal/pipeline"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// runGroup executes a task workload with full control over the collector
// knobs, returning each task's raw result and the final heap image.
func runGroup(t *testing.T, w workloads.TaskWorkload, strat gc.Strategy, ms bool, par int, seed int64) ([]code.Word, []code.Word) {
	t.Helper()
	g := runGroupTo(t, w, strat, ms, par, seed)
	results := make([]code.Word, len(g.Tasks))
	for i, task := range g.Tasks {
		results[i] = task.Result
	}
	return results, g.Heap.MemSnapshot()
}

// runGroupTo is runGroup returning the finished group itself.
func runGroupTo(t *testing.T, w workloads.TaskWorkload, strat gc.Strategy, ms bool, par int, seed int64) *tasking.Group {
	t.Helper()
	prog, _, err := pipeline.Build(w.Source, pipeline.Options{
		Strategy:             strat,
		DisableGCWordElision: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]int, len(w.Entries))
	for i, name := range w.Entries {
		entries[i] = prog.FuncByName(name)
		if entries[i] < 0 {
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
	g.Col.Parallelism = par
	g.Col.ScanSeed = seed
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

func wordsEqual(a, b []code.Word) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelSequentialBitIdentical is the central parallel-correctness
// claim: for every workload, strategy and heap discipline, a 4-worker
// collection history leaves every single heap word equal to the
// sequential oracle's — and, workers counting through the same tracer the
// serial path does, every work counter's total too ("totals are
// deterministic either way", parallel.go).
func TestParallelSequentialBitIdentical(t *testing.T) {
	for _, w := range workloads.Tasking {
		for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratInterp, gc.StratAppel} {
			for _, ms := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/ms=%v", w.Name, strat, ms)
				t.Run(name, func(t *testing.T) {
					seq, par := runGroupTo(t, w, strat, ms, 1, 0), runGroupTo(t, w, strat, ms, 4, 0)
					for i := range seq.Tasks {
						if seq.Tasks[i].Result != par.Tasks[i].Result {
							t.Fatalf("task %d diverges: seq %v par %v", i, seq.Tasks[i].Result, par.Tasks[i].Result)
						}
					}
					if seqMem := seq.Heap.MemSnapshot(); !wordsEqual(seqMem, par.Heap.MemSnapshot()) {
						t.Fatalf("heap images diverge (%d words)", len(seqMem))
					}
					s, p := seq.Col.Stats, par.Col.Stats
					for _, c := range []struct {
						name     string
						seq, par int64
					}{
						{"FramesTraced", s.FramesTraced, p.FramesTraced},
						{"SlotsTraced", s.SlotsTraced, p.SlotsTraced},
						{"ObjectsCopied", s.ObjectsCopied, p.ObjectsCopied},
						{"KernelWords", s.KernelWords, p.KernelWords},
						{"DescBytesDecoded", s.DescBytesDecoded, p.DescBytesDecoded},
						{"ChainSteps", s.ChainSteps, p.ChainSteps},
						{"Heap.WordsCopied", seq.Heap.Stats.WordsCopied, par.Heap.Stats.WordsCopied},
					} {
						if c.seq != c.par {
							t.Errorf("%s: %d sequential, %d with 4 workers", c.name, c.seq, c.par)
						}
					}
				})
			}
		}
	}
}

// TestParallelScanOrderIndependence shuffles the order workers claim task
// stacks in (deterministically, by seed) and requires the identical final
// heap: the parallel design may not depend on which worker scans which
// task first.
func TestParallelScanOrderIndependence(t *testing.T) {
	w, ok := workloads.TaskByName("taskchurn")
	if !ok {
		t.Fatal("taskchurn workload missing")
	}
	for _, ms := range []bool{false, true} {
		t.Run(fmt.Sprintf("ms=%v", ms), func(t *testing.T) {
			baseRes, baseMem := runGroup(t, w, gc.StratCompiled, ms, 4, 0)
			for _, seed := range []int64{1, 7, 42} {
				res, mem := runGroup(t, w, gc.StratCompiled, ms, 4, seed)
				if !wordsEqual(baseRes, res) {
					t.Fatalf("seed %d: results diverge: %v vs %v", seed, baseRes, res)
				}
				if !wordsEqual(baseMem, mem) {
					t.Fatalf("seed %d: heap image diverges", seed)
				}
			}
		})
	}
}

// stressSrc spawns eight churn tasks with distinct offsets; under a tiny
// heap every scheduling turn is near a collection, so parallel scans are
// constantly in flight. Run with -race.
const stressSrc = `
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

// TestParallelStress runs many tasks over a tiny heap with 4 workers, for
// every strategy and discipline, so the race detector sees the parallel
// path under constant collection pressure.
func TestParallelStress(t *testing.T) {
	entries := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	want := make([]int64, len(entries))
	for i := range want {
		want[i] = int64(25*210 + i*100)
	}
	for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratInterp, gc.StratAppel} {
		for _, ms := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/ms=%v", strat, ms), func(t *testing.T) {
				res, err := pipeline.RunTasks(stressSrc, entries, pipeline.Options{
					Strategy:    strat,
					HeapWords:   2048,
					MarkSweep:   ms,
					Parallelism: 4,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range want {
					if res.Values[i] != v {
						t.Fatalf("task %d = %d, want %d", i, res.Values[i], v)
					}
				}
				if res.Stats.Collections == 0 {
					t.Fatal("no collections under a tiny heap")
				}
			})
		}
	}
}

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

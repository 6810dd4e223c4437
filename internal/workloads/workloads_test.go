package workloads_test

import (
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/heap"
	"tagfree/internal/pipeline"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// TestWorkloadsAllStrategies is the corpus-level soundness check: every
// workload computes its documented result under all four collectors, with
// heaps small enough that collections actually occur on the allocation-heavy
// programs.
func TestWorkloadsAllStrategies(t *testing.T) {
	for _, w := range workloads.All {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, strat := range pipeline.Strategies {
				res, err := pipeline.Run(w.Source, pipeline.Options{
					Strategy:  strat,
					HeapWords: w.HeapWords,
					MaxSteps:  500_000_000,
				})
				if err != nil {
					t.Fatalf("[%v] %v", strat, err)
				}
				if res.Value != w.Expect {
					t.Errorf("[%v] result = %d, want %d", strat, res.Value, w.Expect)
				}
			}
		})
	}
}

// TestAllocHeavyWorkloadsCollect confirms the recommended heap sizes force
// real collections in the compiled mode.
func TestAllocHeavyWorkloadsCollect(t *testing.T) {
	for _, w := range workloads.All {
		if !w.AllocHeavy {
			continue
		}
		res, err := pipeline.Run(w.Source, pipeline.Options{
			Strategy:  gc.StratCompiled,
			HeapWords: w.HeapWords,
		})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.HeapStats.Collections == 0 {
			t.Errorf("%s: no collections at the recommended heap size %d",
				w.Name, w.HeapWords)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := workloads.ByName("fib"); !ok {
		t.Fatal("fib missing")
	}
	if _, ok := workloads.ByName("nonesuch"); ok {
		t.Fatal("nonesuch should be missing")
	}
}

// TestWorkloadsMarkSweep runs the corpus under the mark/sweep discipline
// (the paper's "will support mark/sweep collection as well", §2) for every
// tag-free strategy and checks results and that sweeps actually happen.
func TestWorkloadsMarkSweep(t *testing.T) {
	for _, w := range workloads.All {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratInterp, gc.StratAppel} {
				res, err := pipeline.Run(w.Source, pipeline.Options{
					Strategy:  strat,
					HeapWords: w.HeapWords,
					MarkSweep: true,
					MaxSteps:  500_000_000,
				})
				if err != nil {
					t.Fatalf("[%v ms] %v", strat, err)
				}
				if res.Value != w.Expect {
					t.Errorf("[%v ms] result = %d, want %d", strat, res.Value, w.Expect)
				}
			}
		})
	}
}

// TestMarkSweepRejectsTagged ensures the discipline/representation
// constraint is enforced.
func TestMarkSweepRejectsTagged(t *testing.T) {
	w := workloads.All[0]
	_, err := pipeline.Run(w.Source, pipeline.Options{
		Strategy:  gc.StratTagged,
		MarkSweep: true,
	})
	if err == nil {
		t.Fatal("tagged + mark/sweep must be rejected")
	}
}

// TestWorkloadsWithCFA runs the corpus with the higher-order (0-CFA)
// gc_word elision enabled — a wrong elision would crash or corrupt the
// collector when a frame blocks at an elided closure-call site.
func TestWorkloadsWithCFA(t *testing.T) {
	for _, w := range workloads.All {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, strat := range pipeline.Strategies {
				res, err := pipeline.Run(w.Source, pipeline.Options{
					Strategy:  strat,
					HeapWords: w.HeapWords,
					UseCFA:    true,
					MaxSteps:  500_000_000,
				})
				if err != nil {
					t.Fatalf("[%v cfa] %v", strat, err)
				}
				if res.Value != w.Expect {
					t.Errorf("[%v cfa] result = %d, want %d", strat, res.Value, w.Expect)
				}
			}
		})
	}
}

// TestWorkloadsPoisonedMarkSweep runs the corpus with freed-block
// poisoning: a collector precision bug that leaves a stale reachable
// pointer surfaces as a loud checksum failure instead of silent luck.
func TestWorkloadsPoisonedMarkSweep(t *testing.T) {
	for _, w := range workloads.All {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, _, err := pipeline.Build(w.Source, pipeline.Options{Strategy: gc.StratCompiled})
			if err != nil {
				t.Fatal(err)
			}
			h := heap.NewMarkSweep(prog.Repr, w.HeapWords)
			h.SetPoison(true)
			h.SetDebugAccess(true)
			m, err := tasking.NewGroupWith(prog, h, gc.StratCompiled, nil)
			if err != nil {
				t.Fatal(err)
			}
			m.MaxSteps = 500_000_000
			raw, err := m.RunMain()
			if err != nil {
				t.Fatalf("poisoned run: %v", err)
			}
			if got := code.DecodeInt(prog.Repr, raw); got != w.Expect {
				t.Fatalf("poisoned run computed %d, want %d", got, w.Expect)
			}
		})
	}
}

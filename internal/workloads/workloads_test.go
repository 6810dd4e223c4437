package workloads_test

import (
	"slices"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/heap"
	"tagfree/internal/pipeline"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// TestCorpusAgrees is the corpus-level soundness check: every single-task
// program, benchmark and showcase alike, computes its known result under
// every collector, both disciplines of the tag-free ones and the
// higher-order (0-CFA) gc_word elision — a wrong elision would crash or
// corrupt the collector when a frame blocks at an elided closure-call site
// — and prints the same output under each. The heaps are the programs'
// recommended sizes, small enough that the allocation-heavy ones collect.
func TestCorpusAgrees(t *testing.T) {
	type config struct {
		name string
		opts pipeline.Options
	}
	var configs []config
	for _, strat := range pipeline.Strategies {
		configs = append(configs, config{strat.String(), pipeline.Options{Strategy: strat}})
		if strat != gc.StratTagged {
			configs = append(configs, config{strat.String() + "-ms", pipeline.Options{Strategy: strat, MarkSweep: true}})
		}
		configs = append(configs, config{strat.String() + "-cfa", pipeline.Options{Strategy: strat, UseCFA: true}})
	}
	for _, w := range slices.Concat(workloads.All, workloads.Showcase) {
		t.Run(w.Name, func(t *testing.T) {
			var output *string
			for _, c := range configs {
				t.Run(c.name, func(t *testing.T) {
					c.opts.HeapWords, c.opts.MaxSteps = w.HeapWords, 500_000_000
					res, err := pipeline.Run(w.Source, c.opts)
					switch {
					case err != nil:
						t.Fatal(err)
					case res.Value != w.Expect:
						t.Errorf("result = %d, want %d", res.Value, w.Expect)
					case output == nil:
						output = &res.Output
					case res.Output != *output:
						t.Errorf("output %q differs from the first configuration's %q", res.Output, *output)
					}
				})
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

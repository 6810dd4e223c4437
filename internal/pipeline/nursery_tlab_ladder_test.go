package pipeline

import (
	"fmt"
	"testing"

	"tagfree/internal/gc"
)

// TestNurseryTLABLadder drives the generational nursery and per-task
// allocation buffers together through the recovery ladder under fault
// injection — the combination tfgc serve's overload runs lean on. Three
// variants per discipline:
//
//   - fail-alloc: injected failures on the shared-heap slow path at a
//     comfortable heap size; emergency collections alone must rescue.
//   - fail-refills: injected failures confined to TLAB refill carves
//     (the -fail-refills gate), same recovery requirement.
//   - tenure-then-grow: a greedy task whose retained structure exceeds
//     the base heap, so the ladder must climb past the minor and full
//     rungs into heap growth — with injection live.
//
// Every variant must complete with zero faults, the greedy task's full
// result, and the modest siblings bit-identical to an injection-free
// nursery+TLAB run: the ladder may move every collection point without
// perturbing unrelated tasks.
func TestNurseryTLABLadder(t *testing.T) {
	nursery := func(o *Options) {
		o.NurseryWords = 256
		o.TLABWords = 64
		o.VerifyHeap = true
	}

	type baseline struct {
		values  []int64
		outputs []string
	}
	baselines := map[string]baseline{}
	for _, d := range ladderDisciplines {
		opts := Options{
			Strategy:  gc.StratCompiled,
			HeapWords: 1 << 15,
			MarkSweep: d.ms,
		}
		nursery(&opts)
		res, err := RunTasks(ladderSrc, []string{"mod_a", "mod_b"}, opts)
		if err != nil {
			t.Fatalf("baseline %s: %v", d.name, err)
		}
		baselines[d.name] = baseline{res.Values, res.Outputs}
	}

	variants := []struct {
		name string
		opts func(o *Options)
		// wantGrow requires the ladder to climb through the full
		// collections into the growth rung; the others must recover
		// without growing.
		wantGrow bool
	}{
		{
			name: "fail-alloc",
			opts: func(o *Options) {
				o.HeapWords = 1 << 15
				o.FailAllocEvery = 50
			},
		},
		{
			name: "fail-refills",
			opts: func(o *Options) {
				o.HeapWords = 1 << 15
				o.FailAllocEvery = 3
				o.FailRefillsOnly = true
			},
		},
		{
			name: "tenure-then-grow",
			opts: func(o *Options) {
				o.HeapWords = 1024
				o.GrowFactor = 2
				o.MaxHeapWords = 1 << 17
				o.FailAllocEvery = 50
			},
			wantGrow: true,
		},
	}

	for _, d := range ladderDisciplines {
		for _, v := range variants {
			t.Run(fmt.Sprintf("%s/%s", d.name, v.name), func(t *testing.T) {
				opts := Options{
					Strategy:  gc.StratCompiled,
					MarkSweep: d.ms,
				}
				nursery(&opts)
				v.opts(&opts)
				res, err := RunTasks(ladderSrc, []string{"greedy", "mod_a", "mod_b"}, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, f := range res.Faults {
					if f != nil {
						t.Fatalf("task %d faulted: %v", i, f)
					}
				}
				if res.Values[0] != 4000 {
					t.Fatalf("greedy result %d, want 4000", res.Values[0])
				}
				base := baselines[d.name]
				for i := 0; i < 2; i++ {
					if res.Values[1+i] != base.values[i] {
						t.Fatalf("modest task %d = %d, injection-free %d",
							i, res.Values[1+i], base.values[i])
					}
					if res.Outputs[1+i] != base.outputs[i] {
						t.Fatalf("modest task %d output diverges from injection-free run", i)
					}
				}
				rs := res.Telemetry.Resilience
				if rs.InjectedOOMs == 0 {
					t.Fatalf("no injected pressure recorded: %+v", rs)
				}
				if rs.LadderRecovered == 0 || rs.LadderExhausted != 0 {
					t.Fatalf("ladder did not recover cleanly: %+v", rs)
				}
				if v.wantGrow && rs.HeapGrowths == 0 {
					t.Fatalf("ladder never reached the growth rung: %+v", rs)
				}
				if !v.wantGrow && rs.HeapGrowths != 0 {
					t.Fatalf("comfortable heap should not grow: %+v", rs)
				}
			})
		}
	}
}

package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"tagfree/internal/gc"
	"tagfree/internal/tasking"
)

// Per-task budget tests: a budgeted task that exceeds its step or
// allocation-word quota must fault with a structured BudgetExceeded
// TaskFault (PC + backtrace, like the OOM ladder's faults) while its
// siblings run to completion bit-identical to an unbudgeted run without
// the offender. With budgets set but not exceeded, the whole run must be
// bit-identical to one with budgets off — the checks may not perturb
// scheduling, collection points, or results.

// budgetMeters runs ladderSrc unbudgeted and returns each task's observed
// step and allocation meters, so the tests can derive budgets that
// separate the greedy task from the modest ones without hard-coding
// instruction counts.
func budgetMeters(t *testing.T, ms bool) (steps, allocs []int64) {
	t.Helper()
	res, err := RunTasks(ladderSrc, []string{"greedy", "mod_a", "mod_b"}, Options{
		Strategy:  gc.StratCompiled,
		HeapWords: 1 << 15,
		MarkSweep: ms,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range res.Group.Tasks {
		if res.Faults[i] != nil {
			t.Fatalf("unbudgeted meter run faulted: %v", res.Faults[i])
		}
		steps = append(steps, task.Steps)
		allocs = append(allocs, task.AllocWords)
	}
	return steps, allocs
}

func TestBudgetFaultIsolation(t *testing.T) {
	for _, d := range ladderDisciplines {
		steps, allocs := budgetMeters(t, d.ms)
		if steps[0] <= 2*steps[1] || allocs[0] <= 2*allocs[1] {
			t.Fatalf("greedy task not separable from modest ones: steps=%v allocs=%v", steps, allocs)
		}
		base, err := RunTasks(ladderSrc, []string{"mod_a", "mod_b"}, Options{
			Strategy:  gc.StratCompiled,
			HeapWords: 1 << 15,
			MarkSweep: d.ms,
		})
		if err != nil {
			t.Fatalf("baseline %s: %v", d.name, err)
		}

		kinds := []struct {
			name  string
			opts  func(o *Options)
			cause string
		}{
			{
				name: "steps",
				opts: func(o *Options) {
					o.BudgetSteps = (steps[0] + max64(steps[1], steps[2])) / 2
				},
				cause: "step budget exhausted",
			},
			{
				name: "alloc-words",
				opts: func(o *Options) {
					o.BudgetAllocWords = (allocs[0] + max64(allocs[1], allocs[2])) / 2
				},
				cause: "allocation budget exhausted",
			},
		}
		for _, k := range kinds {
			t.Run(fmt.Sprintf("%s/%s", d.name, k.name), func(t *testing.T) {
				opts := Options{
					Strategy:   gc.StratCompiled,
					HeapWords:  1 << 15,
					MarkSweep:  d.ms,
					VerifyHeap: true,
				}
				k.opts(&opts)
				res, err := RunTasks(ladderSrc, []string{"greedy", "mod_a", "mod_b"}, opts)
				if err != nil {
					t.Fatal(err)
				}
				f := res.Faults[0]
				if f == nil {
					t.Fatalf("greedy task did not fault; values %v", res.Values)
				}
				if f.Kind != tasking.FaultBudget {
					t.Fatalf("fault kind %v, want FaultBudget", f.Kind)
				}
				if !strings.Contains(f.Error(), "exceeded its budget") ||
					!strings.Contains(f.Error(), k.cause) {
					t.Fatalf("fault message lacks the budget cause: %v", f)
				}
				if len(f.Frames) == 0 {
					t.Fatalf("budget fault lacks a backtrace: %v", f)
				}
				for i := 0; i < 2; i++ {
					if res.Faults[1+i] != nil {
						t.Fatalf("modest task %d faulted: %v", i, res.Faults[1+i])
					}
					if res.Values[1+i] != base.Values[i] {
						t.Fatalf("modest task %d = %d, unbudgeted %d",
							i, res.Values[1+i], base.Values[i])
					}
					if res.Outputs[1+i] != base.Outputs[i] {
						t.Fatalf("modest task %d output diverges from unbudgeted run", i)
					}
				}
				rs := res.Telemetry.Resilience
				if rs.BudgetFaults != 1 || rs.TaskFaults != 1 {
					t.Fatalf("want exactly one budget fault: %+v", rs)
				}
			})
		}
	}
}

// TestBudgetHeadroomBitIdentical pins that enabled-but-unexceeded budgets
// are invisible: same values, outputs, per-collection live words, and
// live-heap signature as a run with budgets off.
func TestBudgetHeadroomBitIdentical(t *testing.T) {
	entries := []string{"greedy", "mod_a", "mod_b"}
	for _, d := range ladderDisciplines {
		t.Run(d.name, func(t *testing.T) {
			off, err := RunTasks(ladderSrc, entries, Options{
				Strategy:  gc.StratCompiled,
				HeapWords: 1 << 15,
				MarkSweep: d.ms,
			})
			if err != nil {
				t.Fatal(err)
			}
			on, err := RunTasks(ladderSrc, entries, Options{
				Strategy:         gc.StratCompiled,
				HeapWords:        1 << 15,
				MarkSweep:        d.ms,
				BudgetSteps:      1 << 40,
				BudgetAllocWords: 1 << 40,
			})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(on.Values) != fmt.Sprint(off.Values) {
				t.Fatalf("values diverge: %v vs %v", on.Values, off.Values)
			}
			if fmt.Sprint(on.Outputs) != fmt.Sprint(off.Outputs) {
				t.Fatalf("outputs diverge")
			}
			lwOn := fmt.Sprint(on.Telemetry.LiveWordsPerCollection())
			lwOff := fmt.Sprint(off.Telemetry.LiveWordsPerCollection())
			if lwOn != lwOff {
				t.Fatalf("collection live words diverge:\n  on  %s\n  off %s", lwOn, lwOff)
			}
			sigOn := fmt.Sprint(on.Group.Col.LiveSignature(on.Group.Globals))
			sigOff := fmt.Sprint(off.Group.Col.LiveSignature(off.Group.Globals))
			if sigOn != sigOff {
				t.Fatal("live-heap signature diverges with headroom budgets")
			}
		})
	}
}

// TestLadderOutcomeSplit pins the ladderRecovered / ladderExhausted split:
// a rescued emergency counts as recovered (and only once per climb), while
// a climb that ends in a fault counts as exhausted — even though it, too,
// ran an emergency collection.
func TestLadderOutcomeSplit(t *testing.T) {
	t.Run("tasking-recovered", func(t *testing.T) {
		res, err := RunTasks(ladderSrc, []string{"greedy", "mod_a", "mod_b"}, Options{
			Strategy:       gc.StratCompiled,
			HeapWords:      1 << 15,
			FailAllocEvery: 50,
			VerifyHeap:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rs := res.Telemetry.Resilience
		if rs.LadderRecovered == 0 {
			t.Fatalf("no recovery recorded: %+v", rs)
		}
		if rs.LadderExhausted != 0 || rs.TaskFaults != 0 {
			t.Fatalf("comfortable heap should recover every climb: %+v", rs)
		}
	})
	t.Run("tasking-exhausted", func(t *testing.T) {
		res, err := RunTasks(ladderSrc, []string{"greedy", "mod_a", "mod_b"}, Options{
			Strategy:   gc.StratCompiled,
			HeapWords:  1024,
			VerifyHeap: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rs := res.Telemetry.Resilience
		if rs.TaskFaults != 1 || rs.LadderExhausted != 1 {
			t.Fatalf("want exactly one exhausted climb: %+v", rs)
		}
		if rs.EmergencyCollections == 0 {
			t.Fatalf("the exhausted climb must still count its emergency collection: %+v", rs)
		}
	})
	t.Run("vm-recovered", func(t *testing.T) {
		const src = `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let main () = sum (upto 40)
`
		res, err := Run(src, Options{
			Strategy:       gc.StratCompiled,
			HeapWords:      1 << 12,
			FailAllocEvery: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		rs := res.Telemetry.Resilience
		if rs.InjectedOOMs == 0 || rs.LadderRecovered == 0 {
			t.Fatalf("injected climbs not recorded as recovered: %+v", rs)
		}
		if rs.LadderExhausted != 0 {
			t.Fatalf("comfortable heap should not exhaust: %+v", rs)
		}
	})
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestStepBudgetFaultsAtTheSameAllocation: a step budget no longer shortens
// allocation windows to one object — the slice closes its window where the
// budget's undiverted prefix ends — so a budget that runs out inside a run
// of allocations with no call between them must still fault at the
// allocation it ends on, exactly as a window the gate grants one object at
// a time (an allocation-word budget too large to bite forces those) does.
func TestStepBudgetFaultsAtTheSameAllocation(t *testing.T) {
	var src strings.Builder
	src.WriteString("let main () = (let xs = [")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&src, "%d; ", i)
	}
	src.WriteString("60] in 1)")
	for _, ms := range []bool{false, true} {
		faults := 0
		for budget := int64(1); budget < 140; budget++ {
			opts := Options{Strategy: gc.StratCompiled, HeapWords: 1 << 12, MarkSweep: ms, BudgetSteps: budget}
			_, long := Run(src.String(), opts)
			opts.BudgetAllocWords = 1 << 40
			_, one := Run(src.String(), opts)
			if fmt.Sprint(long) != fmt.Sprint(one) {
				t.Fatalf("ms=%v budget %d: %v with long windows, %v with one-object windows", ms, budget, long, one)
			}
			if long != nil {
				faults++ // main makes no call: every safe point is an allocation
			}
		}
		if faults == 0 || faults == 139 {
			t.Fatalf("ms=%v: %d of 139 budgets faulted, want some", ms, faults)
		}
	}
}

package tasking_test

import (
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/tasking"
)

// noHostAllocSrc keeps every kind of event of the dispatch loop busy without
// ever filling the heap it is given: direct and closure calls, field loads
// and stores through a global ref cell, tuple, list and closure allocation,
// and a chain of polymorphic calls ending in a closure that captures a value
// of the type variable, so each link builds the next one's type rep with
// OpMkRep. The recursion is a tree, so the stack is as deep as it gets after
// the first leaf.
const noHostAllocSrc = `
let cell = ref 0
let thunk x = (fun () -> (let _ = [(x, x)] in 0))
let deep2 p = thunk [p]
let deep1 p = deep2 (p, p)
let probe x = (let th = deep1 (x, x) in th ())
let bump f x = (let _ = cell := !cell + f x in !cell)
let rec round n acc =
  if n = 0 then acc
  else round (n - 1) (acc + probe n + bump (fun y -> y + n) n)
let rec tree d = if d = 0 then round 40 0 else tree (d - 1) + tree (d - 1)
let spin () = tree 9
`

// TestSliceAllocatesNothingOnTheHost: a slice of the interpreter is all
// arithmetic on the code, the stack and the simulated heap. 100 000
// instructions of calls, closure calls, loads, stores, allocations and type
// reps built at run time must not allocate once in the host's heap — not a
// rep's child list, not an interning key, not a frame record.
func TestSliceAllocatesNothingOnTheHost(t *testing.T) {
	for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratTagged} {
		g, entries, err := pipeline.BuildTaskGroup(noHostAllocSrc, []string{"spin"},
			pipeline.Options{Strategy: strat, HeapWords: 1 << 22})
		if err != nil {
			t.Fatal(err)
		}
		task := g.Spawn(entries[0])
		if err := g.RunInit(); err != nil {
			t.Fatal(err)
		}
		const slice = 100_000
		for i := 0; i < 3; i++ {
			// One warm-up slice and one measured, so the count is not an average.
			n := testing.AllocsPerRun(1, func() {
				if err := g.Step(task, slice); err != nil {
					t.Fatal(err)
				}
			})
			if n != 0 {
				t.Errorf("%v: a slice of %d instructions allocated %v times on the host", strat, slice, n)
			}
		}
		if task.Status != tasking.Running || task.Steps != 6*slice {
			t.Fatalf("%v: the task is %v after %d instructions; the slices must all be full", strat, task.Status, task.Steps)
		}
		mkreps := 0
		for pc := 0; pc < len(g.Prog.Code); pc += code.InstrLen(g.Prog.Code, pc) {
			if g.Prog.Code[pc] == code.OpMkRep {
				mkreps++
			}
		}
		if task.Calls == 0 || task.ClosCalls == 0 || task.Allocations == 0 || mkreps < 2 || g.Stats.Collections != 0 {
			t.Errorf("%v: the program did not exercise the loop: %d calls, %d closure calls, %d allocations, %d OpMkRep sites, %d collections",
				strat, task.Calls, task.ClosCalls, task.Allocations, mkreps, g.Stats.Collections)
		}
	}
}

package tasking_test

import (
	"math"
	"runtime"
	"runtime/debug"
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
let spin_long () = tree 13
`

// TestSliceAllocatesNothingOnTheHost: a slice of the interpreter is all
// arithmetic on the code, the stack and the simulated heap. 100 000
// instructions of calls, closure calls, loads, stores, allocations and type
// reps built at run time must not allocate once in the host's heap — not a
// rep's child list, not an interning key, not a frame record — and neither
// must a slice that ends in a full heap (fullWindowsAllocateNothingOnTheHost).
func TestSliceAllocatesNothingOnTheHost(t *testing.T) {
	// The counts are the process's: with the host's collector off, a cycle
	// starting mid-measurement (and the mark workers it spawns) is not in them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fullWindowsAllocateNothingOnTheHost(t)
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
		// A slice that allocates does so every time; the host runtime's
		// background work, when every package's tests run at once, does not.
		// So the least of three measurements is held to zero.
		least := math.Inf(1)
		for i := 0; i < 3; i++ {
			// One warm-up slice and one measured, so the count is not an average.
			least = min(least, testing.AllocsPerRun(1, func() {
				if err := g.Step(task, slice); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if least != 0 {
			t.Errorf("%v: every slice of %d instructions allocated on the host, %v times at least", strat, slice, least)
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

// mallocs counts the host allocations f makes, as testing.AllocsPerRun does
// for a function that can be run only once.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// fullWindowsAllocateNothingOnTheHost: the same program on a 4k-word heap
// fills it every few thousand instructions. Each time, the allocating
// instruction finds its window too short, the gate finds the heap too full to
// open another and parks the task, and after the collection the instruction
// is granted a window and runs again — hundreds of times, under both policies
// and on heaps that grant one object at a time. None of it allocates on the
// host: the gate asks whether the object fits and builds no error for the
// answer (the typed *heap.OutOfMemoryError is built where a fault reports
// one). Only the collections, run here between the measured slices, do.
func fullWindowsAllocateNothingOnTheHost(t *testing.T) {
	for name, opts := range map[string]pipeline.Options{
		"copying":       {Strategy: gc.StratCompiled},
		"at-allocs":     {Strategy: gc.StratCompiled, SuspendAtAllocs: true},
		"tagged":        {Strategy: gc.StratTagged},
		"mark/sweep":    {Strategy: gc.StratCompiled, MarkSweep: true},
		"nursery+tlabs": {Strategy: gc.StratCompiled, NurseryWords: 512, TLABWords: 64},
	} {
		opts.HeapWords = 1 << 12
		g, entries, err := pipeline.BuildTaskGroup(noHostAllocSrc, []string{"spin_long"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		task := g.Spawn(entries[0])
		if err := g.RunInit(); err != nil {
			t.Fatal(err)
		}
		// A gate that allocates does so in every slice that ends at it. These
		// slices run once each and cannot be measured again, so a stray
		// allocation of the runtime's own — one slice in hundreds, if any — is
		// tolerated here as the least of three is above.
		var dirty int64
		for slices := 0; g.Stats.Collections < 300; slices++ {
			n := mallocs(func() { err = g.Step(task, 10_000) })
			if err != nil || task.Status == tasking.Done || task.Status == tasking.Faulted {
				t.Fatalf("%s: the task is %v after %d collections: %v", name, task.Status, g.Stats.Collections, err)
			}
			if task.Status != tasking.Running {
				g.CollectSuspended()
			}
			if slices >= 2 && n != 0 {
				dirty++ // the first slices grow the stack
			}
		}
		if dirty > g.Stats.Collections/20 {
			t.Errorf("%s: %d slices allocated on the host; %d ended in a full heap",
				name, dirty, g.Stats.Collections)
		}
	}
}

// TestBudgetedMarkSweepWindowsSpanHoles: on a mark/sweep heap under a step
// budget the dispatch loop lays objects in a window as long as the hole it
// bumps through. The gate is visited by the first allocation of a slice, by
// one that leaves a hole for the next, and by one that finds no hole and
// waits for a collection — not once per object.
func TestBudgetedMarkSweepWindowsSpanHoles(t *testing.T) {
	g, entries, err := pipeline.BuildTaskGroup(noHostAllocSrc, []string{"spin_long"},
		pipeline.Options{Strategy: gc.StratCompiled, MarkSweep: true, HeapWords: 1 << 12, BudgetSteps: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	task := g.Spawn(entries[0])
	if err := g.RunInit(); err != nil {
		t.Fatal(err)
	}
	gates0, slices := g.GateVisits(), int64(0)
	for ; g.Stats.Collections < 50; slices++ {
		if err := g.Step(task, 10_000); err != nil || task.Status == tasking.Done || task.Status == tasking.Faulted {
			t.Fatalf("the task is %v after %d collections: %v", task.Status, g.Stats.Collections, err)
		}
		if task.Status != tasking.Running {
			g.CollectSuspended()
		}
	}
	gates, switches := g.GateVisits()-gates0, g.Heap.Stats.HoleSwitches
	if bound := slices + switches + g.Stats.Collections; gates > bound {
		t.Fatalf("%d gate visits for %d objects: more than %d slices + %d hole switches + %d collections",
			gates, task.Allocations, slices, switches, g.Stats.Collections)
	}
	if gates*4 > task.Allocations {
		t.Fatalf("%d gate visits for %d objects: windows are not spanning holes", gates, task.Allocations)
	}
}

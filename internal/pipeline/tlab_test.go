package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"tagfree/internal/gc"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// TestTLABSharedAcquisitionAmortized pins the point of the whole exercise:
// with buffers on, shared-heap acquisitions (slow-path allocations plus
// refill carves, counted by Stats.SharedAllocs) are amortized O(1/chunk)
// per allocation instead of one per allocation.
func TestTLABSharedAcquisitionAmortized(t *testing.T) {
	w, _ := workloads.TaskByName("taskchurn")
	off, err := RunTasks(w.Source, w.Entries, Options{
		Strategy: gc.StratCompiled, HeapWords: w.HeapWords})
	if err != nil {
		t.Fatal(err)
	}
	on, err := RunTasks(w.Source, w.Entries, Options{
		Strategy: gc.StratCompiled, HeapWords: w.HeapWords, TLABWords: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Without buffers every allocation is a shared acquisition (failed
	// attempts that suspended for collection acquire it too, so ≥).
	if off.Heap.SharedAllocs < off.Heap.Allocations {
		t.Fatalf("baseline: %d shared acquisitions for %d allocations",
			off.Heap.SharedAllocs, off.Heap.Allocations)
	}
	// With buffers the ratio must collapse; 4x is far looser than the
	// chunk-size amortization actually delivers, so it cannot flake.
	if on.Heap.SharedAllocs*4 >= on.Heap.Allocations {
		t.Fatalf("TLABs did not amortize: %d shared acquisitions for %d allocations",
			on.Heap.SharedAllocs, on.Heap.Allocations)
	}
	var perTask int64
	for _, ts := range on.TLABs {
		perTask += ts.FastAllocs + ts.SlowAllocs
	}
	if perTask != on.Heap.Allocations {
		t.Fatalf("per-task accounting: %d fast+slow across tasks, heap saw %d allocations",
			perTask, on.Heap.Allocations)
	}
}

// hogSrc grows a live list until the heap cannot hold it: the OOM-ladder
// antagonist. The sibling task must complete untouched (fault isolation).
const hogSrc = `
let rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc)
let rec len xs = match xs with | [] -> 0 | _ :: r -> len r + 1
let hog () = len (build 2000 [])
let ok () = 7
`

// TestTLABOOMLadderFault drives a TLAB-allocating task through the whole
// recovery ladder to the fault rung and checks the structured fault: OOM
// kind, the pending allocation's field count, and a usable backtrace.
func TestTLABOOMLadderFault(t *testing.T) {
	// Nursery variants are excluded: a live set that outgrows the old
	// region overflows the evacuation itself before the ladder can fault,
	// with or without TLABs — a pre-existing capacity limitation of the
	// generational heap, orthogonal to allocation buffering. Nursery OOM
	// recovery under TLABs is covered by TestTLABRescueLadderStaysMinor.
	for _, ms := range []bool{false, true} {
		t.Run(fmt.Sprintf("ms=%v", ms), func(t *testing.T) {
			res, err := RunTasks(hogSrc, []string{"hog", "ok"}, Options{
				Strategy:   gc.StratCompiled,
				HeapWords:  512,
				MarkSweep:  ms,
				TLABWords:  32,
				VerifyHeap: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			f := res.Faults[0]
			if f == nil {
				t.Fatal("hog task did not fault")
			}
			if f.Kind != tasking.FaultOOM {
				t.Fatalf("fault kind = %v, want FaultOOM", f.Kind)
			}
			if f.AllocSize != 2 {
				t.Fatalf("fault AllocSize = %d, want the 2-field cons", f.AllocSize)
			}
			if len(f.Frames) == 0 || !strings.Contains(f.Error(), "build") {
				t.Fatalf("fault backtrace unusable: %v", f)
			}
			if res.Faults[1] != nil || res.Values[1] != 7 {
				t.Fatalf("sibling not isolated: fault=%v value=%d", res.Faults[1], res.Values[1])
			}
		})
	}
}

// TestTLABRefillFaultInjection targets injection at the refill path:
// -fail-refills makes FailAllocEvery count carve attempts only, every
// injected failure walks the recovery ladder, and the run still completes
// with the reference results.
func TestTLABRefillFaultInjection(t *testing.T) {
	w, _ := workloads.TaskByName("taskchurn")
	res, err := RunTasks(w.Source, w.Entries, Options{
		Strategy:        gc.StratCompiled,
		HeapWords:       w.HeapWords,
		TLABWords:       64,
		FailAllocEvery:  2,
		FailRefillsOnly: true,
		VerifyHeap:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range w.Expect {
		if res.Values[i] != e {
			t.Fatalf("task %d = %d, want %d", i, res.Values[i], e)
		}
	}
	injected := res.Telemetry.Resilience.InjectedOOMs
	if injected == 0 {
		t.Fatal("no refill failures injected")
	}
	// The plan must have been consulted only at refill attempts: with ~64
	// words per carve the consult count is a small fraction of the
	// allocation count, nowhere near one per allocation.
	consults := res.Group.Col.Faults.Allocs()
	if consults == 0 || consults*4 >= res.Heap.Allocations {
		t.Fatalf("RefillOnly consulted the plan %d times for %d allocations",
			consults, res.Heap.Allocations)
	}
}

// TestTLABRefillOnlyWithoutTLABs pins the gate: a refill-only plan on a
// TLAB-less run never fires, even at FailAllocEvery=1.
func TestTLABRefillOnlyWithoutTLABs(t *testing.T) {
	w, _ := workloads.TaskByName("taskchurn")
	res, err := RunTasks(w.Source, w.Entries, Options{
		Strategy:        gc.StratCompiled,
		HeapWords:       w.HeapWords,
		FailAllocEvery:  1,
		FailRefillsOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry.Resilience.InjectedOOMs != 0 {
		t.Fatalf("refill-only plan injected %d failures with TLABs off",
			res.Telemetry.Resilience.InjectedOOMs)
	}
	for i, e := range w.Expect {
		if res.Values[i] != e {
			t.Fatalf("task %d = %d, want %d", i, res.Values[i], e)
		}
	}
}

// TestTLABRescueLadderStaysMinor is the regression test for the rescue
// check: a nursery-exhaustion suspend on a TLAB heap must be judged
// against the TLAB retry path (Heap.Need), which a minor collection
// satisfies. A rescue that judged the retry against the shared heap alone
// would climb to majors or growth for garbage the nursery
// recycles for free.
func TestTLABRescueLadderStaysMinor(t *testing.T) {
	w, _ := workloads.TaskByName("taskchurn")
	res, err := RunTasks(w.Source, w.Entries, Options{
		Strategy:     gc.StratCompiled,
		HeapWords:    1 << 15,
		NurseryWords: 256,
		TLABWords:    64,
		VerifyHeap:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range w.Expect {
		if res.Values[i] != e {
			t.Fatalf("task %d = %d, want %d", i, res.Values[i], e)
		}
	}
	minors := 0
	for _, rec := range res.Telemetry.Records {
		if rec.Kind != "minor" {
			t.Fatalf("collection %d escalated to %q; the TLAB-aware rescue should stop at minors",
				rec.Seq, rec.Kind)
		}
		minors++
	}
	if minors == 0 {
		t.Fatal("workload never triggered a collection")
	}
	if g := res.Telemetry.Resilience.HeapGrowths; g != 0 {
		t.Fatalf("rescue grew the heap %d times for nursery-recyclable garbage", g)
	}
}

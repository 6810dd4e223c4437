package heap

import (
	"strings"
	"testing"

	"tagfree/internal/code"
)

// TestMarkSweepCycles stresses alloc → collect → realloc cycles with mixed
// size classes and verifies surviving contents.
func TestMarkSweepCycles(t *testing.T) {
	h := NewMarkSweep(code.ReprTagFree, 64)
	alloc := func(vals ...code.Word) code.Word {
		p := h.MustAlloc(len(vals))
		for i, v := range vals {
			h.SetField(p, i, v)
		}
		return p
	}
	check := func(p code.Word, vals ...code.Word) {
		for i, v := range vals {
			if got := h.Field(p, i); got != v {
				t.Fatalf("field %d = %d, want %d", i, got, v)
			}
		}
	}

	live2 := alloc(11, 12)
	_ = alloc(666, 667) // dies
	live3 := alloc(21, 22, 23)
	_ = alloc(777, 778, 779) // dies
	live1 := alloc(31)

	cl := begin(h)
	for _, p := range []code.Word{live2, live3, live1} {
		n := 2
		if p == live3 {
			n = 3
		}
		if p == live1 {
			n = 1
		}
		if np, fresh := cl.Visit(p, n); !fresh || np != p {
			t.Fatalf("first visit should be fresh and identity")
		}
		if _, fresh := cl.Visit(p, n); fresh {
			t.Fatalf("second visit must not be fresh")
		}
	}
	h.End()

	check(live2, 11, 12)
	check(live3, 21, 22, 23)
	check(live1, 31)

	// Reallocate from the freed blocks: one 2-word, one 3-word.
	n2 := alloc(41, 42)
	n3 := alloc(51, 52, 53)
	check(live2, 11, 12)
	check(live3, 21, 22, 23)
	check(n2, 41, 42)
	check(n3, 51, 52, 53)

	// Second collection: keep only n2 and live1.
	cl = begin(h)
	cl.Visit(n2, 2)
	cl.Visit(live1, 1)
	h.End()
	check(n2, 41, 42)
	check(live1, 31)

	// Everything freed should be reusable: fill the heap with 2-word objects.
	count := 0
	for !h.Need(2) {
		alloc(code.Word(100+count), code.Word(200+count))
		count++
		if count > 100 {
			break
		}
	}
	check(n2, 41, 42)
	check(live1, 31)
	if count == 0 {
		t.Fatal("no reuse possible after sweep")
	}
}

// TestMarkSweepGapPersistence checks that swept gaps survive multiple
// collections without being reallocated.
func TestMarkSweepGapPersistence(t *testing.T) {
	h := NewMarkSweep(code.ReprTagFree, 32)
	a := h.MustAlloc(4)
	b := h.MustAlloc(4)
	h.SetField(b, 0, 99)
	// a dies, b lives, across three collections.
	for i := 0; i < 3; i++ {
		begin(h).Visit(b, 4)
		h.End()
	}
	_ = a
	if h.Field(b, 0) != 99 {
		t.Fatal("b corrupted")
	}
	// The gap from a must be allocatable exactly once.
	p := h.MustAlloc(4)
	if p == b {
		t.Fatal("allocator returned a live block")
	}
	h.SetField(p, 0, 55)
	if h.Field(b, 0) != 99 {
		t.Fatal("allocation overlapped live object")
	}
}

func TestPoisonedSweep(t *testing.T) {
	// Exactly-full heap: reallocation must reuse the swept block.
	h := NewMarkSweep(code.ReprTagFree, 5)
	h.SetPoison(true)
	dead := h.MustAlloc(3)
	h.SetField(dead, 0, 111)
	live := h.MustAlloc(2)
	h.SetField(live, 0, 222)
	begin(h).Visit(live, 2)
	h.End()
	if h.Field(live, 0) != 222 {
		t.Fatal("live object poisoned")
	}
	// The dead block's memory is now sentinel-filled (read it raw via a
	// fresh allocation of the same size, before writing fields).
	p := h.MustAlloc(3)
	if p != dead {
		t.Fatalf("expected reuse of the freed block")
	}
	if h.Field(p, 0) != PoisonWord {
		t.Fatalf("freed block not poisoned: %d", h.Field(p, 0))
	}
}

// TestSweepWritesOnlyNewlyDeadBlocks: a sweep writes only the blocks that
// died in its own collection. A gap that a retired buffer's tail or an
// earlier sweep left is read by its negative size and merged into its hole
// as it stands — not swept again as an unmarked object, which would
// re-poison it at every collection and make each sweep's writes grow with
// every gap in the heap rather than with what died.
func TestSweepWritesOnlyNewlyDeadBlocks(t *testing.T) {
	h := NewMarkSweep(code.ReprTagFree, 16)
	h.SetPoison(true)
	h.EnableTLABs(8)
	tl, _ := h.CarveTLAB(2)
	a, _ := h.AllocTLAB(&tl, 2)
	b := h.MustAlloc(2) // past the buffer: its tail cannot go back
	if waste, _ := h.RetireTLAB(&tl); waste != 6 {
		t.Fatalf("waste = %d, want the 6-word tail", waste)
	}
	for cycle := 0; cycle < 2; cycle++ {
		cl := begin(h)
		cl.Visit(a, 2)
		cl.Visit(b, 2)
		h.End()
		if errs := h.VerifyHeap(); errs != nil {
			t.Fatal(errs)
		}
		if len(h.holes) == 0 || h.holes[0] != (span{2, 6}) {
			t.Fatalf("collection %d: the tail gap is not the first hole: %v", cycle, h.holes)
		}
		for i, w := range h.mem[2:8] {
			if w == PoisonWord {
				t.Fatalf("collection %d rewrote word %d of a gap no collection freed", cycle, 2+i)
			}
		}
	}
}

// TestMarkSweepOOMReportsHoleWords: a heap whose holes hold plenty of
// storage still cannot take an object longer than each of them. The failure
// must say so — an OutOfMemoryError that reported "0 free" while the holes
// held 12 words would send whoever reads it to the sweep.
func TestMarkSweepOOMReportsHoleWords(t *testing.T) {
	h := NewMarkSweep(code.ReprTagFree, 32)
	var objs []code.Word
	for i := 0; i < 8; i++ {
		objs = append(objs, h.MustAlloc(4))
	}
	// Keep every other object: four 4-word holes.
	cl := begin(h)
	for i := 1; i < 8; i += 2 {
		cl.Visit(objs[i], 4)
	}
	h.End()
	if h.OccupiedWords() != 16 || len(h.holes) != 4 {
		t.Fatalf("%d words occupied in %d holes, want 16 in 4", h.OccupiedWords(), len(h.holes))
	}

	// A 4-word allocation recycles the first hole.
	hitsBefore := h.Stats.FreeListHits
	if p := h.MustAlloc(4); p != objs[0] || h.Stats.FreeListHits != hitsBefore+1 {
		t.Fatal("4-word allocation did not recycle the first hole")
	}

	// A 5-word allocation cannot be satisfied despite 12 free words.
	if !h.Need(5) {
		t.Fatal("Need(5) false: no hole takes a 5-word request")
	}
	_, err := h.Alloc(5)
	oom, ok := err.(*OutOfMemoryError)
	if !ok {
		t.Fatalf("Alloc(5) error = %v, want *OutOfMemoryError", err)
	}
	if oom.Discipline != "mark/sweep" || oom.Requested != 5 || oom.Free != 0 || oom.HoleWords != 12 {
		t.Fatalf("OutOfMemoryError = %+v, want Discipline=mark/sweep Requested=5 Free=0 HoleWords=12", oom)
	}
	if !strings.Contains(oom.Error(), "12 more words free in other holes") {
		t.Fatalf("error message hides the hole storage: %q", oom.Error())
	}
}

// TestSweepMergesAdjacentDeadBlocks: dead blocks side by side become one
// hole, which takes an object as long as all of them — on an exactly full
// heap, where exact-size reuse would have no block of that size — and a
// lone dead block is a hole of its own, taken by the first object that
// fits it. The tiling stays sound throughout.
func TestSweepMergesAdjacentDeadBlocks(t *testing.T) {
	h := NewMarkSweep(code.ReprTagFree, 16)
	sizes := []int{3, 3, 3, 3, 3, 1}
	var objs []code.Word
	for _, n := range sizes {
		objs = append(objs, h.MustAlloc(n))
	}
	verify := func() {
		t.Helper()
		if errs := h.VerifyHeap(); errs != nil {
			t.Fatal(errs)
		}
	}
	cl := begin(h)
	for _, i := range []int{0, 3, 5} { // objects 1 and 2 die side by side, 4 alone
		cl.Visit(objs[i], sizes[i])
	}
	h.End()
	verify()
	if want := []span{{3, 6}, {12, 3}}; len(h.holes) != 2 || h.holes[0] != want[0] || h.holes[1] != want[1] {
		t.Fatalf("holes %v, want %v", h.holes, want)
	}
	if h.Need(6) || !h.Need(7) {
		t.Fatal("want room for 6 words in one piece and not for 7")
	}
	if p := h.MustAlloc(6); p != objs[1] {
		t.Fatalf("6-word object at %d, want the merged hole at %d", p, objs[1])
	}
	verify()
	// Two switches: out of the full heap's empty tail, then past the
	// merged hole.
	if p := h.MustAlloc(2); p != objs[4] || h.Stats.HoleSwitches != 2 {
		t.Fatalf("2-word object at %d after %d hole switches, want the lone hole at %d after 2",
			p, h.Stats.HoleSwitches, objs[4])
	}
	verify()
}

// TestSweepKeepsWhatTheTailHeld: allocation that leaves the tail for a lower
// hole raises the high-water mark first, so the next sweep walks the objects
// a buffer laid in the tail instead of handing them out again as tail.
func TestSweepKeepsWhatTheTailHeld(t *testing.T) {
	h := NewMarkSweep(code.ReprTagFree, 32)
	h.EnableTLABs(32)
	var objs []code.Word
	for i := 0; i < 4; i++ {
		objs = append(objs, h.MustAlloc(2))
	}
	cl := begin(h)
	cl.Visit(objs[0], 2)
	cl.Visit(objs[2], 2)
	h.End() // holes [2, 4) and [6, 8); the tail [8, 32) is current
	tl, ok := h.CarveTLAB(2)
	if !ok {
		t.Fatal("no buffer in the tail")
	}
	inTail, _ := h.AllocTLAB(&tl, 2)
	inHole := h.MustAlloc(2) // the buffer took the tail: the first hole
	h.RetireTLAB(&tl)
	cl = begin(h)
	for _, p := range []code.Word{objs[0], objs[2], inTail, inHole} {
		cl.Visit(p, 2)
	}
	h.End()
	if errs := h.VerifyHeap(); errs != nil {
		t.Fatal(errs)
	}
	if h.OccupiedWords() != 8 {
		t.Fatalf("%d words occupied after the sweep, want the 8 of four live objects", h.OccupiedWords())
	}
	if p := h.MustAlloc(2); p == inTail {
		t.Fatal("the sweep handed out a live object the tail held")
	}
}

// TestDebugAccessCatchesFreedBlockInsideHole: a dead block that a sweep
// merged into a hole behind another keeps its own size, negated, so a stale
// pointer to it still reads as freed — not only a pointer to the hole's
// first word.
func TestDebugAccessCatchesFreedBlockInsideHole(t *testing.T) {
	h := NewMarkSweep(code.ReprTagFree, 16)
	h.SetDebugAccess(true)
	live, _, inner := h.MustAlloc(2), h.MustAlloc(2), h.MustAlloc(3)
	begin(h).Visit(live, 2)
	h.End()
	if h.holes[0] != (span{2, 5}) {
		t.Fatalf("first hole %v, want [2, 7)", h.holes[0])
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "field access to freed block at offset 4") {
			t.Fatalf("panic %q, want the freed block at offset 4", msg)
		}
	}()
	h.Field(inner, 0)
	t.Fatal("a load from a block inside a hole did not panic")
}

// TestMarkClaimRefusesBadBlocks: the mark/sweep claim panics when the
// collector visits a block the last sweep freed — at a hole's first word or
// merged behind it — or a live block at a size
// other than the one it was allocated with — a collector precision bug
// caught at the visit instead of at the next sweep.
func TestMarkClaimRefusesBadBlocks(t *testing.T) {
	for _, tc := range []struct {
		name      string
		obj, size int
		want      string
	}{
		{"freed block", 0, 2, "collector visited a freed block at offset 0 (size 2)"},
		{"freed block inside a hole", 1, 2, "collector visited a freed block at offset 2 (size 2)"},
		{"wrong size", 2, 3, "collector visited block at 4 with size 3, allocated as 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewMarkSweep(code.ReprTagFree, 16)
			objs := []code.Word{h.MustAlloc(2), h.MustAlloc(2), h.MustAlloc(2)}
			begin(h).Visit(objs[2], 2)
			h.End() // the first two are swept into one hole
			ptr := objs[tc.obj]
			cl := begin(h)
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one naming %q", msg, tc.want)
				}
			}()
			cl.Visit(ptr, tc.size)
			t.Fatal("the visit did not panic")
		})
	}
}

// TestPromotionTakesALongerHole: a nursery survivor is promoted into the
// first mark/sweep hole long enough for it, whatever length that hole is —
// here a 15-word hole, with no 3-word block anywhere and the old region
// otherwise full — rather than pinned in the nursery for want of a block of
// its own size.
func TestPromotionTakesALongerHole(t *testing.T) {
	h := NewMarkSweep(code.ReprTagFree, 16)
	h.EnableNursery(4)
	for i := 0; i < 3; i++ {
		h.MustAlloc(5) // wider than the nursery takes: born old
	}
	begin(h) // none of them is reached
	h.End()
	young := h.MustAlloc(3)
	if !h.InYoung(young) {
		t.Fatal("the 3-word object was not born young")
	}
	cl := new(Claim)
	h.Begin(cl, Cycle{Minor: true})
	p, _ := cl.Visit(young, 3)
	h.End()
	if h.Stats.PromotionFailures != 0 || h.InYoung(p) || h.OccupiedWords() != 3 {
		t.Fatalf("survivor at %d, %d pinned, %d words occupied: want it promoted into the hole",
			p, h.Stats.PromotionFailures, h.OccupiedWords())
	}
	if errs := h.VerifyHeap(); errs != nil {
		t.Fatal(errs)
	}
}

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
// earlier sweep left is read by its negative size and put back on its free
// list as it stands — not swept again as an unmarked object, which would
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
		if len(h.free[6]) != 1 {
			t.Fatalf("collection %d: the tail gap is not on the 6-word list", cycle)
		}
		for i, w := range h.mem[2:8] {
			if w == PoisonWord {
				t.Fatalf("collection %d rewrote word %d of a gap no collection freed", cycle, 2+i)
			}
		}
	}
}

// TestMarkSweepOOMReportsFreeListWords documents the exact-size free-list
// limitation (BiBoP: a block is reused only for its own size class): a
// heap whose free lists hold plenty of storage still cannot satisfy an
// allocation of a size class it has never freed. The failure must say so —
// before this test, the OutOfMemoryError reported "0 free" while 32 words
// sat on the free lists, and diagnosing the OOM meant reading the sweep.
func TestMarkSweepOOMReportsFreeListWords(t *testing.T) {
	h := NewMarkSweep(code.ReprTagFree, 32)
	for i := 0; i < 8; i++ {
		h.MustAlloc(4)
	}
	// Collect with nothing live: all 32 words land on the 4-word free list.
	begin(h)
	h.End()
	if h.FreeListWords() != 32 {
		t.Fatalf("free lists hold %d words, want 32", h.FreeListWords())
	}

	// A 4-word allocation recycles a free block.
	hitsBefore := h.Stats.FreeListHits
	h.MustAlloc(4)
	if h.Stats.FreeListHits != hitsBefore+1 {
		t.Fatal("4-word allocation did not recycle a free block")
	}

	// A 3-word allocation cannot be satisfied despite 28 free words.
	if !h.Need(3) {
		t.Fatal("Need(3) false: exact-size free lists cannot satisfy a 3-word request")
	}
	_, err := h.Alloc(3)
	oom, ok := err.(*OutOfMemoryError)
	if !ok {
		t.Fatalf("Alloc(3) error = %v, want *OutOfMemoryError", err)
	}
	if oom.Discipline != "mark/sweep" || oom.Requested != 3 || oom.Free != 0 || oom.FreeListWords != 28 {
		t.Fatalf("OutOfMemoryError = %+v, want Discipline=mark/sweep Requested=3 Free=0 FreeListWords=28", oom)
	}
	if !strings.Contains(oom.Error(), "28 more words on mismatched free lists") {
		t.Fatalf("error message hides the free-list storage: %q", oom.Error())
	}
}

// TestCoalesceReusesMismatchedBlocks: a region tiled with live objects and
// free blocks of other sizes — the tails retired allocation buffers leave —
// serves no 1-word request until Coalesce cuts the largest run of adjacent
// gaps into blocks of that size; a run ending at the bump pointer goes back
// to the bump region instead. The tiling stays sound throughout.
func TestCoalesceReusesMismatchedBlocks(t *testing.T) {
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
	collect := func(keep ...int) {
		cl := begin(h)
		for _, i := range keep {
			cl.Visit(objs[i], sizes[i])
		}
		h.End()
		verify()
	}
	collect(0, 3, 5) // objects 1 and 2 die side by side, 4 alone
	if !h.Need(1) || !h.Coalesce(1) {
		t.Fatal("want no 1-word block before coalescing and one after")
	}
	verify()
	for i := 0; i < 6; i++ {
		h.MustAlloc(1) // the 6-word run, cut in six
	}
	if !h.Need(1) || h.Need(3) {
		t.Fatal("the run should be used up and the lone 3-word block kept")
	}
	collect(0) // everything above the first object dies
	if !h.Coalesce(4) || h.Used() != 3 {
		t.Fatalf("the run at the bump pointer did not go back to the bump region: %d words used", h.Used())
	}
	verify()
}

// TestMarkClaimRefusesBadBlocks: the mark/sweep claim panics when the
// collector visits a block the last sweep freed, or a live block at a size
// other than the one it was allocated with — a collector precision bug
// caught at the visit instead of at the next sweep.
func TestMarkClaimRefusesBadBlocks(t *testing.T) {
	for _, tc := range []struct {
		name string
		dead bool
		size int
		want string
	}{
		{"freed block", true, 2, "collector visited a freed block at offset 0 (size 2)"},
		{"wrong size", false, 3, "collector visited block at 2 with size 3, allocated as 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewMarkSweep(code.ReprTagFree, 16)
			dead, live := h.MustAlloc(2), h.MustAlloc(2)
			begin(h).Visit(live, 2)
			h.End() // dead is swept onto the free list
			ptr := live
			if tc.dead {
				ptr = dead
			}
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

package heap

import (
	"strings"
	"testing"

	"tagfree/internal/code"
)

// collectAll runs a trivial copying collection retaining the given roots
// (flat objects, no interior pointers) and returns their new pointers.
func collectAll(h *Heap, roots []code.Word, sizes []int) []code.Word {
	cl := begin(h)
	out := make([]code.Word, len(roots))
	for i, r := range roots {
		p, _ := cl.Visit(r, sizes[i])
		out[i] = p
	}
	h.End()
	return out
}

func TestVerifyCopyingCleanHeap(t *testing.T) {
	h := New(code.ReprTagFree, 64)
	h.SetVerify(true)
	a := h.MustAlloc(2)
	h.SetField(a, 0, code.EncodeInt(h.Repr, 7))
	b := h.MustAlloc(3)
	_ = h.MustAlloc(5) // garbage
	ps := collectAll(h, []code.Word{a, b}, []int{2, 3})
	if errs := h.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("clean heap reported violations: %v", errs)
	}
	if err := h.CheckLive(ps[0], 2); err != nil {
		t.Fatalf("CheckLive on a live object: %v", err)
	}
	if err := h.CheckLive(ps[0], 3); err == nil {
		t.Fatal("CheckLive accepted a wrong extent")
	}
	// An interior pointer is not an object start.
	interior := code.EncodePtr(h.Repr, code.DecodePtr(h.Repr, ps[1])+1)
	if err := h.CheckLive(interior, 2); err == nil {
		t.Fatal("CheckLive accepted an interior pointer")
	}
	// Mutator allocation ends the exact-span window; bounds checking remains.
	h.MustAlloc(1)
	if err := h.CheckLive(ps[0], 2); err != nil {
		t.Fatalf("CheckLive after mutator alloc: %v", err)
	}
}

func TestVerifyTaggedHeap(t *testing.T) {
	h := New(code.ReprTagged, 64)
	h.SetVerify(true)
	a := h.MustAlloc(1)
	b := h.MustAlloc(2)
	h.SetField(b, 0, a)
	h.SetField(b, 1, code.EncodeInt(h.Repr, 9))
	cl := begin(h)
	nb, _ := cl.Visit(b, 0)
	h.ScanToSpaceBatched(func(fields []code.Word) {
		for i, w := range fields {
			if code.IsBoxedValue(code.ReprTagged, w) {
				fields[i], _ = cl.Visit(w, 0)
			}
		}
	})
	h.End()
	if errs := h.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("clean tagged heap reported violations: %v", errs)
	}
	// Corrupt a pointer field to aim at an interior word: the header walk
	// must flag it.
	h.SetField(nb, 0, h.Field(nb, 0)+2)
	errs := h.VerifyHeap()
	if len(errs) == 0 {
		t.Fatal("corrupted pointer field not reported")
	}
	if !strings.Contains(errs[0].Error(), "not an object start") {
		t.Fatalf("unexpected violation: %v", errs[0])
	}
}

func TestVerifyMarkSweepCleanAndCorrupted(t *testing.T) {
	h := NewMarkSweep(code.ReprTagFree, 32)
	a := h.MustAlloc(3)
	_ = h.MustAlloc(4) // dies
	b := h.MustAlloc(2)
	cl := begin(h)
	cl.Visit(a, 3)
	cl.Visit(b, 2)
	h.End()
	if errs := h.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("clean mark/sweep heap reported violations: %v", errs)
	}
	if err := h.CheckLive(a, 3); err != nil {
		t.Fatalf("CheckLive on a live block: %v", err)
	}

	// Repeat a hole: the order must fail.
	holes := h.holes
	h.holes = append(holes[:len(holes):len(holes)], holes[len(holes)-1])
	if errs := h.VerifyHeap(); len(errs) == 0 {
		t.Fatal("repeated hole not reported")
	}
	h.holes = holes

	// Occupancy that the objects do not hold.
	h.occupied++
	if errs := h.VerifyHeap(); len(errs) == 0 {
		t.Fatal("occupancy mismatch not reported")
	}
	h.occupied--

	// An unaccounted word (no object, no gap) breaks the tiling.
	base := h.addrIndex(a)
	h.objSize[base] = 0
	errs := h.VerifyHeap()
	if len(errs) == 0 {
		t.Fatal("unaccounted words not reported")
	}
	if !strings.Contains(errs[0].Error(), "neither in an object nor a gap") {
		t.Fatalf("unexpected violation: %v", errs[0])
	}
	h.objSize[base] = 3
}

// TestVerifyWalksSettledWindow: a window bumps through a hole without a call
// per object, and Settle writes what is left of the hole back as a gap, so
// the region is tiled — and verifies — after every Settle, not only after a
// sweep.
func TestVerifyWalksSettledWindow(t *testing.T) {
	h := NewMarkSweep(code.ReprTagFree, 16)
	var w Window
	if !h.OpenWindow(&w, 2, false) || w.Limit != 16 || w.Sizes == nil {
		t.Fatalf("window [%d, %d), sizes %v: want the whole hole, with its size record", w.HP, w.Limit, w.Sizes != nil)
	}
	for _, n := range []int{2, 5} {
		w.Sizes[w.HP] = int32(n) // as the dispatch loop lays an object
		w.HP += n
		w.Objects++
		h.Settle(&w)
		if errs := h.VerifyHeap(); len(errs) != 0 {
			t.Fatalf("after settling a %d-word object: %v", n, errs)
		}
	}
	if h.OccupiedWords() != 7 || h.alloc != 7 || h.objSize[7] != -9 {
		t.Fatalf("occupied %d, hole at %d recorded %d; want 7, 7, -9", h.OccupiedWords(), h.alloc, h.objSize[7])
	}
}

func TestVerifyCatchesMissedCopy(t *testing.T) {
	h := New(code.ReprTagFree, 64)
	h.SetVerify(true)
	a := h.MustAlloc(2)
	b := h.MustAlloc(3)
	collectAll(h, []code.Word{a, b}, []int{2, 3})
	// Fake a forwarding hole: pretend the collector bump-allocated past the
	// recorded spans (as if an object were copied without being recorded).
	h.alloc += 2
	errs := h.VerifyHeap()
	if len(errs) == 0 {
		t.Fatal("span/alloc mismatch not reported")
	}
	h.alloc -= 2
}

func TestVerifyCatchesStrayForwarding(t *testing.T) {
	h := New(code.ReprTagFree, 64)
	h.SetVerify(true)
	a := h.MustAlloc(2)
	collectAll(h, []code.Word{a}, []int{2})
	if errs := h.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("a clean collection does not verify: %v", errs)
	}
	// The cycle forwarded a to the start of the new space; point the entry
	// past everything it copied.
	for i, f := range h.forward {
		if f != 0 {
			h.forward[i] = f + 2
		}
	}
	errs := h.VerifyHeap()
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "outside the copied region") {
		t.Fatalf("a forwarding entry past the copied region not reported: %v", errs)
	}
}

func TestGrowCopyingPreservesPointers(t *testing.T) {
	for _, repr := range []code.Repr{code.ReprTagFree, code.ReprTagged} {
		h := New(repr, 16)
		a := h.MustAlloc(2)
		h.SetField(a, 0, code.EncodeInt(repr, 41))
		h.SetField(a, 1, code.EncodeInt(repr, 42))
		if err := h.Grow(8); err == nil {
			t.Fatal("Grow to a smaller size succeeded")
		}
		if err := h.Grow(64); err != nil {
			t.Fatalf("Grow: %v", err)
		}
		if h.SemiWords() != 64 {
			t.Fatalf("SemiWords = %d after Grow(64)", h.SemiWords())
		}
		if got := code.DecodeInt(repr, h.Field(a, 1)); got != 42 {
			t.Fatalf("field after Grow = %d, want 42 (repr %v)", got, repr)
		}
		// The grown heap must survive collections in both flip parities.
		for i := 0; i < 2; i++ {
			a = collectAll(h, []code.Word{a}, []int{2})[0]
			if got := code.DecodeInt(repr, h.Field(a, 0)); got != 41 {
				t.Fatalf("field after post-Grow GC %d = %d, want 41 (repr %v)", i, got, repr)
			}
			big := h.MustAlloc(40) // would not fit in the old 16-word space
			h.SetField(big, 39, code.EncodeInt(repr, 7))
		}
	}
}

func TestGrowMarkSweepPreservesBlocks(t *testing.T) {
	h := NewMarkSweep(code.ReprTagFree, 16)
	a := h.MustAlloc(3)
	h.SetField(a, 2, code.EncodeInt(h.Repr, 5))
	_ = h.MustAlloc(13) // fill the space
	if !h.Need(4) {
		t.Fatal("heap should be full")
	}
	if err := h.Grow(64); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if h.Need(4) {
		t.Fatal("grown heap still reports Need(4)")
	}
	h.MustAlloc(4)
	if got := code.DecodeInt(h.Repr, h.Field(a, 2)); got != 5 {
		t.Fatalf("field after Grow = %d, want 5", got)
	}
	begin(h).Visit(a, 3)
	h.End()
	if errs := h.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("grown mark/sweep heap fails verification: %v", errs)
	}
	if h.Stats.Growths != 1 {
		t.Fatalf("Growths = %d, want 1", h.Stats.Growths)
	}
}

func TestGrowDuringGCRefused(t *testing.T) {
	h := New(code.ReprTagFree, 16)
	begin(h)
	if err := h.Grow(64); err == nil {
		t.Fatal("Grow during a collection succeeded")
	}
	h.End()
}

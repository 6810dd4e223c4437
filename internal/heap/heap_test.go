package heap

import (
	"testing"
	"testing/quick"

	"tagfree/internal/code"
)

// begin opens a major by hand and returns the claim Begin filled for it.
func begin(h *Heap) *Claim {
	cl := new(Claim)
	h.Begin(cl, Cycle{})
	return cl
}

func TestAllocTagFree(t *testing.T) {
	h := New(code.ReprTagFree, 100)
	p1 := h.MustAlloc(2)
	p2 := h.MustAlloc(3)
	if p1 == p2 {
		t.Fatal("distinct allocations share an address")
	}
	h.SetField(p1, 0, 42)
	h.SetField(p1, 1, 43)
	h.SetField(p2, 2, 99)
	if h.Field(p1, 0) != 42 || h.Field(p1, 1) != 43 || h.Field(p2, 2) != 99 {
		t.Fatal("field round-trip failed")
	}
	if h.Used() != 5 {
		t.Fatalf("used = %d, want 5 (no headers in tag-free mode)", h.Used())
	}
}

func TestAllocTaggedHeaders(t *testing.T) {
	h := New(code.ReprTagged, 100)
	p := h.MustAlloc(2)
	if h.Used() != 3 {
		t.Fatalf("used = %d, want 3 (header + 2 fields)", h.Used())
	}
	if h.ObjLen(p) != 2 {
		t.Fatalf("ObjLen = %d, want 2", h.ObjLen(p))
	}
	h.SetField(p, 0, code.EncodeInt(code.ReprTagged, 7))
	if code.DecodeInt(code.ReprTagged, h.Field(p, 0)) != 7 {
		t.Fatal("tagged field round-trip failed")
	}
}

func TestNeed(t *testing.T) {
	h := New(code.ReprTagFree, 10)
	if h.Need(10) {
		t.Fatal("empty heap should fit 10 words")
	}
	h.MustAlloc(8)
	if !h.Need(3) {
		t.Fatal("should need collection for 3 more words")
	}
	if h.Need(2) {
		t.Fatal("2 words still fit")
	}
}

func TestCopyCollectTagFree(t *testing.T) {
	h := New(code.ReprTagFree, 100)
	p1 := h.MustAlloc(2)
	h.SetField(p1, 0, 1)
	h.SetField(p1, 1, 2)
	garbage := h.MustAlloc(10)
	_ = garbage
	p2 := h.MustAlloc(1)
	h.SetField(p2, 0, p1) // p2 points at p1

	cl := begin(h)
	n1, fresh := cl.Visit(p1, 2)
	if !fresh {
		t.Fatal("first visit found a forwarding entry")
	}
	if fwd, fresh := cl.Visit(p1, 2); fresh || fwd != n1 {
		t.Fatal("forwarding not recorded")
	}
	// The copy preserved the fields.
	if h.Field(n1, 0) != 1 || h.Field(n1, 1) != 2 {
		t.Fatal("copy corrupted fields")
	}
	n2, _ := cl.Visit(p2, 1)
	h.SetField(n2, 0, n1)
	h.End()

	if h.Used() != 3 {
		t.Fatalf("after GC used = %d, want 3 (garbage dropped)", h.Used())
	}
	if h.Stats.Collections != 1 || h.Stats.LiveAfterLastGC != 3 {
		t.Fatalf("stats: %+v", h.Stats)
	}
	// New space allocations work.
	p3 := h.MustAlloc(4)
	h.SetField(p3, 3, 123)
	if h.Field(p3, 3) != 123 {
		t.Fatal("post-GC allocation broken")
	}
}

func TestCopyCollectTaggedBrokenHeart(t *testing.T) {
	h := New(code.ReprTagged, 100)
	p := h.MustAlloc(3)
	h.SetField(p, 0, code.EncodeInt(code.ReprTagged, 5))
	cl := begin(h)
	n, fresh := cl.Visit(p, 0) // the size comes from the header
	if !fresh {
		t.Fatal("first visit found a broken heart")
	}
	if fwd, fresh := cl.Visit(p, 0); fresh || fwd != n {
		t.Fatal("broken heart not readable")
	}
	h.End()
	if h.Stats.WordsCopied != 4 {
		t.Fatalf("copied %d words, want 4 (header + 3 fields)", h.Stats.WordsCopied)
	}
	if h.ObjLen(n) != 3 {
		t.Fatal("copied header corrupted")
	}
}

func TestForwardingTableCleared(t *testing.T) {
	h := New(code.ReprTagFree, 50)
	p := h.MustAlloc(1)
	begin(h).Visit(p, 1)
	h.End()
	p2 := h.MustAlloc(1)
	if _, fresh := begin(h).Visit(p2, 1); !fresh {
		t.Fatal("stale forwarding entry survived the flip")
	}
	h.End()
}

func TestOutOfMemoryError(t *testing.T) {
	h := New(code.ReprTagFree, 4)
	_, err := h.Alloc(10)
	oom, ok := err.(*OutOfMemoryError)
	if !ok {
		t.Fatalf("Alloc(10) error = %v, want *OutOfMemoryError", err)
	}
	if oom.Discipline != "copying" || oom.Requested != 10 || oom.Free != 4 {
		t.Fatalf("OutOfMemoryError = %+v, want Discipline=copying Requested=10 Free=4", oom)
	}
	// MustAlloc converts the same failure to a panic for pre-checked callers.
	defer func() {
		if _, ok := recover().(*OutOfMemoryError); !ok {
			t.Fatal("MustAlloc did not panic with OutOfMemoryError")
		}
	}()
	h.MustAlloc(10)
}

// TestOOMErrorUniformFormat pins the satellite fix: both disciplines report
// exhaustion with the same Error() shape, naming the discipline and the
// requested/free words.
func TestOOMErrorUniformFormat(t *testing.T) {
	hc := New(code.ReprTagFree, 4)
	_, errC := hc.Alloc(6)
	if got := errC.Error(); got != "heap exhausted (copying): need 6 words, 4 contiguous free" {
		t.Fatalf("copying OOM message = %q", got)
	}
	hm := NewMarkSweep(code.ReprTagFree, 4)
	_, errM := hm.Alloc(6)
	if got := errM.Error(); got != "heap exhausted (mark/sweep): need 6 words, 4 contiguous free" {
		t.Fatalf("mark/sweep OOM message = %q", got)
	}
}

func TestScanToSpaceCheney(t *testing.T) {
	h := New(code.ReprTagged, 200)
	// A chain a -> b -> c plus garbage between.
	c := h.MustAlloc(1)
	h.SetField(c, 0, code.EncodeInt(code.ReprTagged, 3))
	h.MustAlloc(5)
	b := h.MustAlloc(1)
	h.SetField(b, 0, c)
	h.MustAlloc(7)
	a := h.MustAlloc(1)
	h.SetField(a, 0, b)

	cl := begin(h)
	na, _ := cl.Visit(a, 0)
	copied := 1
	h.ScanToSpaceBatched(func(fields []code.Word) {
		for i, w := range fields {
			if !code.IsBoxedValue(code.ReprTagged, w) {
				continue
			}
			nw, fresh := cl.Visit(w, 0)
			if fresh {
				copied++
			}
			fields[i] = nw
		}
	})
	h.End()
	if copied != 3 {
		t.Fatalf("copied %d objects, want 3", copied)
	}
	nb := h.Field(na, 0)
	nc := h.Field(nb, 0)
	if code.DecodeInt(code.ReprTagged, h.Field(nc, 0)) != 3 {
		t.Fatal("chain broken after Cheney scan")
	}
	if h.Used() != 6 {
		t.Fatalf("used = %d, want 6 (three headered 1-field objects)", h.Used())
	}
}

// TestGraphPreservationProperty builds random object graphs directly on the
// heap, collects with a trivial tracer, and verifies the reachable graph is
// isomorphic afterwards.
func TestGraphPreservationProperty(t *testing.T) {
	f := func(seed16 [16]uint8) bool {
		h := New(code.ReprTagged, 4096)
		// Build a random DAG of 2-field nodes; field values are either
		// small ints or pointers to earlier nodes.
		var nodes []code.Word
		for i, s := range seed16 {
			p := h.MustAlloc(2)
			for fno := 0; fno < 2; fno++ {
				sel := (int(s) >> (fno * 4)) & 0xf
				if len(nodes) > 0 && sel < 8 {
					h.SetField(p, fno, nodes[sel%len(nodes)])
				} else {
					h.SetField(p, fno, code.EncodeInt(code.ReprTagged, int64(i*10+fno)))
				}
			}
			nodes = append(nodes, p)
		}
		root := nodes[len(nodes)-1]
		before := snapshot(h, root)

		cl := begin(h)
		var trace func(w code.Word) code.Word
		trace = func(w code.Word) code.Word {
			if !code.IsBoxedValue(code.ReprTagged, w) {
				return w
			}
			n, fresh := cl.Visit(w, 0)
			if fresh {
				h.SetField(n, 0, trace(h.Field(n, 0)))
				h.SetField(n, 1, trace(h.Field(n, 1)))
			}
			return n
		}
		newRoot := trace(root)
		h.End()

		after := snapshot(h, newRoot)
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// snapshot serializes the reachable graph from root as a canonical int
// sequence (preorder with backreference indexes).
func snapshot(h *Heap, root code.Word) []int64 {
	var out []int64
	seen := map[code.Word]int{}
	var walk func(w code.Word)
	walk = func(w code.Word) {
		if !code.IsBoxedValue(code.ReprTagged, w) {
			out = append(out, -1, code.DecodeInt(code.ReprTagged, w))
			return
		}
		if idx, ok := seen[w]; ok {
			out = append(out, -2, int64(idx))
			return
		}
		seen[w] = len(seen)
		out = append(out, -3)
		walk(h.Field(w, 0))
		walk(h.Field(w, 1))
	}
	walk(root)
	return out
}

// TestPeakLiveCountsMinors: every collection is a reading of the peak
// resident size, a minor's included — on a nursery heap that only ever
// runs minors, the survivors they promote are the resident set, and a peak
// read only at majors stays 0.
func TestPeakLiveCountsMinors(t *testing.T) {
	for _, ms := range []bool{false, true} {
		h := New(code.ReprTagFree, 64)
		if ms {
			h = NewMarkSweep(code.ReprTagFree, 64)
		}
		h.EnableNursery(16)
		keep := h.MustAlloc(3)
		h.MustAlloc(5) // dies young
		cl := new(Claim)
		h.Begin(cl, Cycle{Minor: true})
		if _, fresh := cl.Visit(keep, 3); !fresh {
			t.Fatal("the survivor's first visit is not fresh")
		}
		h.End()
		if h.Stats.MinorCollections != 1 || h.Stats.Collections != 1 {
			t.Fatalf("ms=%v: %+v, want one minor and nothing else", ms, h.Stats)
		}
		if h.Stats.PeakLive != 3 {
			t.Fatalf("ms=%v: PeakLive = %d after a minor that promoted 3 words, want 3", ms, h.Stats.PeakLive)
		}
	}
}

package gc

import (
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/heap"
)

// beginOwn opens a major on the collector's heap by hand and returns the
// collector's own tracer, armed with the claim Begin filled.
func beginOwn(c *Collector) *tracer {
	c.Heap.Begin(&c.own.claim, heap.Cycle{})
	return &c.own
}

var (
	intListDesc  = &code.TypeDesc{Kind: code.TDData, Index: 0, Args: []*code.TypeDesc{{Kind: code.TDConst}}}
	pairDesc     = &code.TypeDesc{Kind: code.TDTuple, Args: []*code.TypeDesc{{Kind: code.TDConst}, {Kind: code.TDConst}}}
	pairListDesc = &code.TypeDesc{Kind: code.TDData, Index: 0, Args: []*code.TypeDesc{pairDesc}}
)

// constTuple is the routine of an n-tuple of unboxed words.
func constTuple(c *Collector, n int) TypeGC {
	d := &code.TypeDesc{Kind: code.TDTuple}
	for i := 0; i < n; i++ {
		d.Args = append(d.Args, &code.TypeDesc{Kind: code.TDConst})
	}
	return c.FromDesc(d, nil)
}

// rootRoutine is g the way a root runs it: through the kernel it classifies
// to, or through the generic Trace dispatch.
func rootRoutine(t *testing.T, c *Collector, g TypeGC, generic bool) routine {
	if generic {
		return routine{g: g}
	}
	r := c.classified(g)
	if r.k != kSpineFlat {
		t.Fatalf("list classified %v, want the spine kernel", r.k)
	}
	return r
}

// paths names the two ways a root runs.
var paths = map[string]bool{"kernel": false, "generic": true}

// TestClaimOOMMidSpine fills to-space so that it runs out exactly between two
// cells of a list: the copy that does not fit panics with the heap's own
// exhaustion error — the discipline, the words asked for, the words left —
// whether the spine runs through its kernel or through Trace.
func TestClaimOOMMidSpine(t *testing.T) {
	for name, generic := range paths {
		t.Run(name, func(t *testing.T) {
			c := newTestCollector(t, code.ReprTagFree, StratCompiled, 64)
			h := c.Heap
			lst := mkList(h, []int64{1, 2, 3, 4, 5})
			r := rootRoutine(t, c, c.FromDesc(intListDesc, nil), generic)
			tr := beginOwn(c)
			h.MustAlloc(64 - 4) // two cells' room left in to-space
			defer func() {
				oom, ok := recover().(*heap.OutOfMemoryError)
				if !ok {
					t.Fatalf("to-space exhaustion did not panic with *heap.OutOfMemoryError")
				}
				want := heap.OutOfMemoryError{Discipline: "copying", Requested: 2, Free: 0}
				if *oom != want {
					t.Fatalf("exhaustion error %+v, want %+v", *oom, want)
				}
				if c.Stats.ObjectsCopied != 2 || h.Stats.WordsCopied != 4 {
					t.Fatalf("copied %d objects, %d words before the panic, want 2 and 4", c.Stats.ObjectsCopied, h.Stats.WordsCopied)
				}
			}()
			tr.kernel(&r, lst)
			t.Fatal("a list of five cells fit in two cells' room")
		})
	}
}

// TestClaimVerifySpans: under heap verification a collection records one span
// per copied object in copy order — here a list of pairs, each cell followed
// by its payload — and the spans tile the new space exactly.
func TestClaimVerifySpans(t *testing.T) {
	for name, generic := range paths {
		t.Run(name, func(t *testing.T) {
			c := newTestCollector(t, code.ReprTagFree, StratCompiled, 64)
			h := c.Heap
			h.SetVerify(true)
			tail := code.Word(0)
			for i := int64(3); i > 0; i-- {
				pair := h.MustAlloc(2)
				h.SetField(pair, 0, code.EncodeInt(h.Repr, i))
				h.SetField(pair, 1, code.EncodeInt(h.Repr, 10*i))
				h.MustAlloc(3) // garbage between the live objects
				cell := h.MustAlloc(2)
				h.SetField(cell, 0, pair)
				h.SetField(cell, 1, tail)
				tail = cell
			}
			r := rootRoutine(t, c, c.FromDesc(pairListDesc, nil), generic)
			head := beginOwn(c).kernel(&r, tail)
			h.End()
			if errs := h.VerifyHeap(); len(errs) != 0 {
				t.Fatalf("verified collection reported %v", errs)
			}
			if h.Used() != 12 {
				t.Fatalf("%d words live, want 12", h.Used())
			}
			base := code.DecodePtr(h.Repr, head)
			for k := 0; k < 6; k++ {
				obj := code.EncodePtr(h.Repr, base+2*k)
				if err := h.CheckLive(obj, 2); err != nil {
					t.Fatalf("object %d: %v", k, err)
				}
				if h.CheckLive(obj, 3) == nil {
					t.Fatalf("object %d: span accepts a 3-word extent", k)
				}
				if h.CheckLive(obj+1, 1) == nil {
					t.Fatalf("object %d: span starts one word in", k)
				}
			}
			for i, cell := int64(1), head; i <= 3; i, cell = i+1, h.Field(cell, 1) {
				pair := h.Field(cell, 0)
				if code.DecodePtr(h.Repr, pair) != code.DecodePtr(h.Repr, cell)+2 {
					t.Fatalf("cell %d's payload copied at %d, want right behind the cell", i, pair)
				}
				if code.DecodeInt(h.Repr, h.Field(pair, 1)) != 10*i {
					t.Fatalf("cell %d's payload corrupted", i)
				}
			}
		})
	}
}

// TestClaimRepaysOldReserve: in a copying major on a nursery heap, old copies
// repay the to-space they were held back (oldReserve) one copy at a time, and
// a promotion takes only what lies beyond what is still owed. Old A and B hold
// 80 of a 100-word semispace; once A is copied 40 are still owed, so young Y1
// (16 words, to-space at 56 of 60) is promoted and Y2 (72) is not — with no
// repayment neither would be, and with the reserve forgotten both would, and
// B would not fit. Y2 is pinned: it stays where it is with its words, is
// counted, and the nursery's bump restarts just above it.
func TestClaimRepaysOldReserve(t *testing.T) {
	prog := listProgram(code.ReprTagFree)
	h := heap.New(prog.Repr, 100)
	h.EnableNursery(32)
	c, err := New(prog, h, StratCompiled)
	if err != nil {
		t.Fatal(err)
	}
	a, b := h.MustAlloc(40), h.MustAlloc(40)
	y1, y2 := h.MustAlloc(16), h.MustAlloc(16)
	if !h.InOld(a) || !h.InOld(b) || !h.InYoung(y1) || !h.InYoung(y2) {
		t.Fatal("objects not laid out as the test assumes")
	}
	for i := 0; i < 16; i++ {
		h.SetField(y2, i, code.EncodeInt(h.Repr, int64(100+i)))
	}
	old, young := constTuple(c, 40), constTuple(c, 16)
	tr := beginOwn(c)
	na := old.Trace(tr, a)
	ny1 := young.Trace(tr, y1)
	ny2 := young.Trace(tr, y2)
	nb := old.Trace(tr, b)
	h.End()
	if !h.InOld(ny1) || ny2 != y2 {
		t.Fatalf("Y1 promoted %v, Y2 at %d (was %d); want Y1 promoted and Y2 pinned in place", h.InOld(ny1), ny2, y2)
	}
	if h.Stats.PromotedWords != 16 || h.Stats.WordsCopied != 96 || h.Stats.PromotionFailures != 1 {
		t.Fatalf("promoted %d, copied %d words, %d promotion failures; want 16, 96 and 1",
			h.Stats.PromotedWords, h.Stats.WordsCopied, h.Stats.PromotionFailures)
	}
	if base := code.DecodePtr(h.Repr, na); code.DecodePtr(h.Repr, ny1) != base+40 || code.DecodePtr(h.Repr, nb) != base+56 {
		t.Fatalf("A, Y1, B copied to %d, %d, %d; want them end to end", na, ny1, nb)
	}
	for i := 0; i < 16; i++ {
		if v := code.DecodeInt(h.Repr, h.Field(ny2, i)); v != int64(100+i) {
			t.Fatalf("pinned Y2 field %d = %d, want %d", i, v, 100+i)
		}
	}
	if want := int(code.DecodePtr(h.Repr, y2)-code.HeapBase) + 16; h.YoungUsed() != want {
		t.Fatalf("nursery bump restarted at %d words, want %d (just above the pinned Y2)", h.YoungUsed(), want)
	}
	if errs := h.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("verify: %v", errs)
	}
	if err := h.CheckLive(ny2, 16); err != nil {
		t.Fatalf("pinned Y2: %v", err)
	}
}

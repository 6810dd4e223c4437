package code

import (
	"testing"
	"testing/quick"
)

func TestIntEncodingRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		// Tag-free is the identity.
		if DecodeInt(ReprTagFree, EncodeInt(ReprTagFree, v)) != v {
			return false
		}
		// Tagged is exact within 63 bits.
		v63 := v << 1 >> 1
		return DecodeInt(ReprTagged, EncodeInt(ReprTagged, v63)) == v63
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTaggedIntsAreOdd(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 42, -99, 1 << 40} {
		if EncodeInt(ReprTagged, v)&1 != 1 {
			t.Errorf("tagged int %d is not odd", v)
		}
	}
}

func TestPtrEncoding(t *testing.T) {
	for _, addr := range []int{HeapBase, HeapBase + 1, HeapBase + 12345} {
		for _, r := range []Repr{ReprTagFree, ReprTagged} {
			w := EncodePtr(r, addr)
			if DecodePtr(r, w) != addr {
				t.Errorf("%v: ptr %d round-trip failed", r, addr)
			}
			if !IsBoxedValue(r, w) {
				t.Errorf("%v: encoded pointer %d not recognized as boxed", r, addr)
			}
		}
	}
}

func TestBoxedDiscrimination(t *testing.T) {
	// Nullary constructor constants and null must never look boxed.
	for _, r := range []Repr{ReprTagFree, ReprTagged} {
		for tag := 0; tag < 300; tag++ {
			if IsBoxedValue(r, EncodeNullCtor(r, tag)) {
				t.Errorf("%v: nullary ctor %d looks boxed", r, tag)
			}
		}
		if IsBoxedValue(r, 0) {
			t.Errorf("%v: null looks boxed", r)
		}
	}
	// Tagged pointers are even; tagged ints odd — never confusable.
	f := func(v int64) bool {
		return !IsBoxedValue(ReprTagged, EncodeInt(ReprTagged, v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolEncoding(t *testing.T) {
	for _, r := range []Repr{ReprTagFree, ReprTagged} {
		if !DecodeBool(r, EncodeBool(r, true)) || DecodeBool(r, EncodeBool(r, false)) {
			t.Errorf("%v: bool round-trip failed", r)
		}
	}
}

// TestAtomEncoding round-trips the sign-coded operand at the ends of each
// kind's index range, for a program with no globals and with many: a slot is
// its own index, a global or constant the complement of its statics index
// (globals first), so one sign test splits frame from statics.
func TestAtomEncoding(t *testing.T) {
	const maxIdx = 1<<31 - 1
	for _, nGlobals := range []int{0, 1, 77, maxIdx} {
		cases := []struct{ kind, idx int }{
			{AtomSlot, 0}, {AtomSlot, 500}, {AtomSlot, maxIdx},
			{AtomConst, 0}, {AtomConst, 3}, {AtomConst, maxIdx},
		}
		if nGlobals > 0 {
			cases = append(cases, []struct{ kind, idx int }{{AtomGlobal, 0}, {AtomGlobal, nGlobals - 1}}...)
		}
		for _, c := range cases {
			w := EncodeAtom(c.kind, c.idx, nGlobals)
			if k, i := DecodeAtom(w, nGlobals); k != c.kind || i != c.idx {
				t.Errorf("%d globals: atom (%d,%d) encoded as %d decoded as (%d,%d)", nGlobals, c.kind, c.idx, w, k, i)
			}
			switch c.kind {
			case AtomSlot:
				if w != Word(c.idx) {
					t.Errorf("slot %d encoded as %d, want the index itself", c.idx, w)
				}
			case AtomGlobal:
				if w >= 0 || ^w != Word(c.idx) {
					t.Errorf("global %d encoded as %d, want its complement", c.idx, w)
				}
			case AtomConst:
				if w >= 0 || ^w != Word(nGlobals+c.idx) {
					t.Errorf("constant %d after %d globals encoded as %d, want ^%d", c.idx, nGlobals, w, nGlobals+c.idx)
				}
			}
		}
	}
}

// TestFuncAt maps every pc of a three-function code array to its function.
func TestFuncAt(t *testing.T) {
	p := &Program{Code: make([]Word, 10), Funcs: []*FuncInfo{{Entry: 0}, {Entry: 3}, {Entry: 4}}}
	want := []int{0, 0, 0, 1, 2, 2, 2, 2, 2, 2}
	for pc, w := range want {
		if got := p.FuncAt(pc); got != w {
			t.Errorf("FuncAt(%d) = %d, want %d", pc, got, w)
		}
	}
	if p.FuncAt(-1) != -1 || p.FuncAt(10) != -1 {
		t.Error("a pc outside the code array must map to no function")
	}
}

func TestInstrLen(t *testing.T) {
	// A tiny code stream covering variable-length instructions.
	codeArr := []Word{
		OpCall, 0, 1, 2, 3, 0, 0, 0, // len 5+3=8
		OpMkTuple, 0, 1, 2, 0, 0, // len 4+2=6
		OpMkClos, 0, 1, 2, -1, 1, 2, 0, 0, 0, // len 7+1+2=10
		OpRet, 0, // len 2
	}
	pcs := []int{0, 8, 14, 24}
	lens := []int{8, 6, 10, 2}
	for i, pc := range pcs {
		if got := InstrLen(codeArr, pc); got != lens[i] {
			t.Errorf("InstrLen at %d = %d, want %d", pc, got, lens[i])
		}
	}
}

func TestGCWordOffsets(t *testing.T) {
	if GCWordOffset(OpCall) != 3 {
		t.Error("OpCall gc_word must sit at +3")
	}
	for _, op := range []Op{OpCallC, OpMkRef, OpMkTuple, OpMkBox, OpMkClos} {
		if GCWordOffset(op) != 2 {
			t.Errorf("%s gc_word must sit at +2", OpName(op))
		}
	}
	if GCWordOffset(OpAdd) != -1 {
		t.Error("OpAdd has no gc_word")
	}
}

func TestRepTableHashConsing(t *testing.T) {
	rt := NewRepTable()
	constH := rt.Intern(TDConst, 0, nil)
	if rt.Intern(TDConst, 0, nil) != constH {
		t.Fatal("const rep not hash-consed")
	}
	list1 := rt.Intern(TDData, 0, []int{constH})
	list2 := rt.Intern(TDData, 0, []int{constH})
	if list1 != list2 {
		t.Fatal("identical composite reps not shared")
	}
	nested := rt.Intern(TDData, 0, []int{list1})
	if nested == list1 {
		t.Fatal("distinct reps merged")
	}
	e := rt.Entry(nested)
	if e.Kind != TDData || len(e.Children) != 1 || e.Children[0] != list1 {
		t.Fatalf("entry corrupted: %+v", e)
	}
	if rt.Len() != 3 {
		t.Fatalf("table has %d entries, want 3", rt.Len())
	}
}

func TestRepTableChildrenCopied(t *testing.T) {
	rt := NewRepTable()
	children := []int{rt.Intern(TDConst, 0, nil)}
	h := rt.Intern(TDTuple, 0, children)
	children[0] = 999 // mutate the caller's slice
	if rt.Entry(h).Children[0] == 999 {
		t.Fatal("rep table aliased the caller's slice")
	}
}

// TestRepTableWideReps: children past the key's inline arity still tell reps
// apart, a shorter rep is not a prefix-match of a longer one, and finding a
// rep of inline arity again allocates nothing.
func TestRepTableWideReps(t *testing.T) {
	rt := NewRepTable()
	wide := []int{1, 2, 3, 4, 5, 6}
	h := rt.Intern(TDTuple, 0, wide)
	if rt.Intern(TDTuple, 0, []int{1, 2, 3, 4, 5, 6}) != h {
		t.Error("identical wide reps not shared")
	}
	for _, other := range [][]int{{1, 2, 3, 4, 5, 7}, {1, 2, 3, 4, 5}, {1, 2, 3, 4}, {1, 2, 3, 4, 0, 0}, {1, 2, 3, 4, 56}} {
		if rt.Intern(TDTuple, 0, other) == h {
			t.Errorf("rep %v merged with %v", other, wide)
		}
	}
	if rt.Intern(TDTuple, 0, []int{1, 2, 3}) == rt.Intern(TDTuple, 0, []int{1, 2, 3, 0}) {
		t.Error("a rep merged with its zero-padded extension")
	}
	four := wide[:repKeyArity]
	rt.Intern(TDData, 7, four)
	if n := testing.AllocsPerRun(100, func() { rt.Intern(TDData, 7, four) }); n != 0 {
		t.Errorf("finding an interned rep of %d children allocates %v times", len(four), n)
	}
}

func TestTypeDescPrinting(t *testing.T) {
	d := &TypeDesc{Kind: TDArrow, Args: []*TypeDesc{
		{Kind: TDVar, Index: 0},
		{Kind: TDData, Index: 2, Args: []*TypeDesc{{Kind: TDConst}}},
	}}
	want := "($0 -> data2(const))"
	if d.String() != want {
		t.Errorf("String = %q, want %q", d.String(), want)
	}
}

func TestMayHoldPointer(t *testing.T) {
	if (&TypeDesc{Kind: TDConst}).MayHoldPointer() {
		t.Error("const cannot hold pointers")
	}
	if (&TypeDesc{Kind: TDOpaque}).MayHoldPointer() {
		t.Error("opaque positions are parametric non-pointers")
	}
	for _, k := range []TDKind{TDVar, TDRef, TDTuple, TDData, TDArrow} {
		if !(&TypeDesc{Kind: k}).MayHoldPointer() {
			t.Errorf("kind %d may hold pointers", k)
		}
	}
}

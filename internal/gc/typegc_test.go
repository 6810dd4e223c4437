package gc

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"tagfree/internal/code"
	"tagfree/internal/heap"
)

// listProgram builds a minimal program with the built-in list layout at
// data id 0 and an int tree layout at id 1.
func listProgram(repr code.Repr) *code.Program {
	listLayout := &code.DataLayout{
		Name:       "list",
		HasTagWord: false,
		Boxed: []code.CtorLayout{{
			Name: "::",
			Fields: []*code.TypeDesc{
				{Kind: code.TDVar, Index: 0},
				{Kind: code.TDData, Index: 0, Args: []*code.TypeDesc{{Kind: code.TDVar, Index: 0}}},
			},
		}},
		NullaryNames: []string{"[]"},
	}
	treeLayout := &code.DataLayout{
		Name:       "tree",
		HasTagWord: false,
		Boxed: []code.CtorLayout{{
			Name: "Node",
			Fields: []*code.TypeDesc{
				{Kind: code.TDData, Index: 1},
				{Kind: code.TDConst},
				{Kind: code.TDData, Index: 1},
			},
		}},
		NullaryNames: []string{"Leaf"},
	}
	return &code.Program{
		Repr: repr,
		Data: []*code.DataLayout{listLayout, treeLayout},
		Reps: code.NewRepTable(),
	}
}

func newTestCollector(t *testing.T, repr code.Repr, strat Strategy, semi int) *Collector {
	t.Helper()
	prog := listProgram(repr)
	h := heap.New(repr, semi)
	c, err := New(prog, h, strat)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestF3TraceListOfSharing reproduces Figure 3: the type_gc closure for
// "list of T" is constructed once and shared.
func TestF3TraceListOfSharing(t *testing.T) {
	c := newTestCollector(t, code.ReprTagFree, StratCompiled, 1024)
	intList := &code.TypeDesc{Kind: code.TDData, Index: 0,
		Args: []*code.TypeDesc{{Kind: code.TDConst}}}
	g1 := c.FromDesc(intList, nil)
	g2 := c.FromDesc(intList, nil)
	if g1 != g2 {
		t.Fatal("trace_list_of(const_gc) must be shared (Figure 3)")
	}
	listOfList := &code.TypeDesc{Kind: code.TDData, Index: 0, Args: []*code.TypeDesc{intList}}
	g3 := c.FromDesc(listOfList, nil)
	if g3 == g1 {
		t.Fatal("distinct instantiations must not collide")
	}
	if g3.Child(code.PathStep{Kind: 2, Index: 0}) != g1 {
		t.Fatal("the nested list routine should decompose to the inner one")
	}
}

// TestF4ArrowDecomposition reproduces Figure 4: a function value's routine
// exposes routines for its domain and codomain.
func TestF4ArrowDecomposition(t *testing.T) {
	c := newTestCollector(t, code.ReprTagFree, StratCompiled, 1024)
	intList := &code.TypeDesc{Kind: code.TDData, Index: 0,
		Args: []*code.TypeDesc{{Kind: code.TDConst}}}
	arrow := &code.TypeDesc{Kind: code.TDArrow,
		Args: []*code.TypeDesc{{Kind: code.TDConst}, intList}}
	g := c.FromDesc(arrow, nil)
	dom := g.Child(code.PathStep{Kind: 0})
	cod := g.Child(code.PathStep{Kind: 1})
	if dom != c.FromDesc(&code.TypeDesc{Kind: code.TDConst}, nil) {
		t.Fatal("dom decomposition wrong")
	}
	if cod != c.FromDesc(intList, nil) {
		t.Fatal("cod decomposition wrong")
	}
	// A derivation path through the arrow reaches the element routine.
	elem := ApplyPath(g, []code.PathStep{{Kind: 1}, {Kind: 2, Index: 0}})
	if elem != c.b.Const() {
		t.Fatal("path Cod→Elem should reach const_gc")
	}
}

// mkList builds an unboxed-terminated int list on the heap, tag-free.
func mkList(h *heap.Heap, vals []int64) code.Word {
	tail := code.Word(0) // [] is nullary tag 0
	for i := len(vals) - 1; i >= 0; i-- {
		cell := h.MustAlloc(2)
		h.SetField(cell, 0, code.EncodeInt(h.Repr, vals[i]))
		h.SetField(cell, 1, tail)
		tail = cell
	}
	return tail
}

func readList(h *heap.Heap, w code.Word) []int64 {
	var out []int64
	for code.IsBoxedValue(h.Repr, w) {
		out = append(out, code.DecodeInt(h.Repr, h.Field(w, 0)))
		w = h.Field(w, 1)
	}
	return out
}

func TestDataTraceCopiesList(t *testing.T) {
	c := newTestCollector(t, code.ReprTagFree, StratCompiled, 4096)
	h := c.Heap
	lst := mkList(h, []int64{1, 2, 3, 4, 5})
	h.MustAlloc(100) // garbage

	intList := &code.TypeDesc{Kind: code.TDData, Index: 0,
		Args: []*code.TypeDesc{{Kind: code.TDConst}}}
	g := c.FromDesc(intList, nil)

	nl := g.Trace(beginOwn(c), lst)
	h.End()

	got := readList(h, nl)
	want := []int64{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("list length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Used() != 10 {
		t.Fatalf("live = %d words, want 10 (5 cons cells)", h.Used())
	}
}

func TestDataTraceLongListIterative(t *testing.T) {
	// A 50k-element list must trace without host stack overflow (the
	// self-recursive tail field is followed iteratively).
	c := newTestCollector(t, code.ReprTagFree, StratCompiled, 1<<18)
	h := c.Heap
	vals := make([]int64, 50_000)
	for i := range vals {
		vals[i] = int64(i)
	}
	lst := mkList(h, vals)
	intList := &code.TypeDesc{Kind: code.TDData, Index: 0,
		Args: []*code.TypeDesc{{Kind: code.TDConst}}}
	g := c.FromDesc(intList, nil)

	nl := g.Trace(beginOwn(c), lst)
	h.End()

	got := readList(h, nl)
	if len(got) != len(vals) || got[0] != 0 || got[len(got)-1] != int64(len(vals)-1) {
		t.Fatalf("long list corrupted: len=%d first=%d last=%d", len(got), got[0], got[len(got)-1])
	}
}

func TestSharedStructurePreserved(t *testing.T) {
	// Two lists sharing a tail must share it after collection.
	c := newTestCollector(t, code.ReprTagFree, StratCompiled, 4096)
	h := c.Heap
	shared := mkList(h, []int64{10, 20})
	a := h.MustAlloc(2)
	h.SetField(a, 0, code.EncodeInt(h.Repr, 1))
	h.SetField(a, 1, shared)
	b := h.MustAlloc(2)
	h.SetField(b, 0, code.EncodeInt(h.Repr, 2))
	h.SetField(b, 1, shared)

	intList := &code.TypeDesc{Kind: code.TDData, Index: 0,
		Args: []*code.TypeDesc{{Kind: code.TDConst}}}
	g := c.FromDesc(intList, nil)

	tr := beginOwn(c)
	na := g.Trace(tr, a)
	nb := g.Trace(tr, b)
	h.End()

	if h.Field(na, 1) != h.Field(nb, 1) {
		t.Fatal("shared tail duplicated by collection")
	}
	if h.Used() != 8 {
		t.Fatalf("live = %d words, want 8 (4 cells)", h.Used())
	}
}

func TestTreeTraceWithTagless(t *testing.T) {
	c := newTestCollector(t, code.ReprTagFree, StratCompiled, 4096)
	h := c.Heap
	leaf := code.Word(0)
	mkNode := func(l code.Word, v int64, r code.Word) code.Word {
		n := h.MustAlloc(3)
		h.SetField(n, 0, l)
		h.SetField(n, 1, code.EncodeInt(h.Repr, v))
		h.SetField(n, 2, r)
		return n
	}
	tree := mkNode(mkNode(leaf, 1, leaf), 2, mkNode(leaf, 3, leaf))
	treeDesc := &code.TypeDesc{Kind: code.TDData, Index: 1}
	g := c.FromDesc(treeDesc, nil)

	nt := g.Trace(beginOwn(c), tree)
	h.End()

	var sum int64
	var walk func(w code.Word)
	walk = func(w code.Word) {
		if !code.IsBoxedValue(h.Repr, w) {
			return
		}
		walk(h.Field(w, 0))
		sum += code.DecodeInt(h.Repr, h.Field(w, 1))
		walk(h.Field(w, 2))
	}
	walk(nt)
	if sum != 6 {
		t.Fatalf("tree sum after trace = %d, want 6", sum)
	}
}

func TestInterpDescriptorRoundTrip(t *testing.T) {
	// Encoding a site and decoding it must reconstruct identical
	// (memoized) routines to the direct descriptor path.
	c := newTestCollector(t, code.ReprTagFree, StratInterp, 1024)
	intList := &code.TypeDesc{Kind: code.TDData, Index: 0,
		Args: []*code.TypeDesc{{Kind: code.TDConst}}}
	tup := &code.TypeDesc{Kind: code.TDTuple, Args: []*code.TypeDesc{
		intList,
		{Kind: code.TDRef, Args: []*code.TypeDesc{{Kind: code.TDConst}}},
		{Kind: code.TDArrow, Args: []*code.TypeDesc{{Kind: code.TDConst}, intList}},
		{Kind: code.TDVar, Index: 1},
	}}
	site := &code.SiteInfo{Live: []code.SlotEntry{{Slot: 3, Desc: tup}}}
	buf := encodeSite(site)

	targs := []TypeGC{c.b.Const(), c.FromDesc(intList, nil)}
	r := &descReader{buf: buf}
	n := r.uvarint()
	if n != 1 {
		t.Fatalf("decoded %d entries, want 1", n)
	}
	slot := r.uvarint()
	if slot != 3 {
		t.Fatalf("decoded slot %d, want 3", slot)
	}
	got := c.decodeDesc(r, targs)
	want := c.FromDesc(tup, targs)
	if got != want {
		t.Fatal("decoded routine differs from the directly built one")
	}
}

func TestEncodeDescProperty(t *testing.T) {
	// Round-tripping random descriptor shapes through the byte encoding
	// always reproduces the memoized routine.
	c := newTestCollector(t, code.ReprTagFree, StratInterp, 1024)
	mkDesc := func(depth int, sel uint8) *code.TypeDesc {
		var build func(d int, s uint8) *code.TypeDesc
		build = func(d int, s uint8) *code.TypeDesc {
			if d == 0 {
				if s&1 == 0 {
					return &code.TypeDesc{Kind: code.TDConst}
				}
				return &code.TypeDesc{Kind: code.TDVar, Index: int(s) % 2}
			}
			switch s % 4 {
			case 0:
				return &code.TypeDesc{Kind: code.TDRef, Args: []*code.TypeDesc{build(d-1, s>>2)}}
			case 1:
				return &code.TypeDesc{Kind: code.TDTuple, Args: []*code.TypeDesc{
					build(d-1, s>>2), build(d-1, s>>3)}}
			case 2:
				return &code.TypeDesc{Kind: code.TDData, Index: 0,
					Args: []*code.TypeDesc{build(d-1, s>>2)}}
			default:
				return &code.TypeDesc{Kind: code.TDArrow, Args: []*code.TypeDesc{
					build(d-1, s>>2), build(d-1, s>>3)}}
			}
		}
		return build(depth, sel)
	}
	targs := []TypeGC{c.b.Const(), c.FromDesc(&code.TypeDesc{Kind: code.TDData, Index: 0,
		Args: []*code.TypeDesc{{Kind: code.TDConst}}}, nil)}
	f := func(depth uint8, sel uint8) bool {
		d := mkDesc(int(depth%4), sel)
		buf := encodeDesc(nil, d)
		r := &descReader{buf: buf}
		return c.decodeDesc(r, targs) == c.FromDesc(d, targs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyReprCompatibility(t *testing.T) {
	prog := listProgram(code.ReprTagFree)
	h := heap.New(code.ReprTagFree, 64)
	if _, err := New(prog, h, StratTagged); err == nil {
		t.Fatal("tagged strategy over a tag-free program must be rejected")
	}
	progT := listProgram(code.ReprTagged)
	hT := heap.New(code.ReprTagged, 64)
	if _, err := New(progT, hT, StratCompiled); err == nil {
		t.Fatal("compiled strategy over a tagged program must be rejected")
	}
}

// ---------------------------------------------------------------------------
// Node-resident components: cached ≡ resolved, allocation guard. typegc_corpus_test.go runs CheckComponents over the corpora.
// ---------------------------------------------------------------------------

// CheckComponents walks every entry of the collector's hash-cons table and
// checks each cached constructor shape and capture list against a fresh
// descriptor resolution: pointer-identical routines, the right immediate
// prefix and spine field — and the re-resolution must build no node, since
// whatever the caches hold was resolved through the same table.
func CheckComponents(c *Collector) error {
	b := c.b
	built := b.Built
	byID := map[int]TypeGC{}
	for _, g := range b.nodes {
		byID[g.gcID()] = g
	}
	for _, g := range b.nodes {
		dg, ok := g.(*dataG)
		if !ok {
			continue
		}
		for tag := range dg.ctors {
			sh := dg.ctors[tag]
			if sh == nil {
				continue
			}
			fds := dg.layout.Boxed[tag].Fields
			off, tail := 0, -1
			if dg.layout.HasTagWord {
				off = 1
			}
			if len(sh.fields) != len(fds) {
				return fmt.Errorf("%s tag %d: %d cached fields, layout has %d", dg.layout.Name, tag, len(sh.fields), len(fds))
			}
			for i, fd := range fds {
				fresh := c.FromDesc(fd, dg.args)
				if fresh != sh.fields[i] {
					return fmt.Errorf("%s tag %d field %d: cached routine is not the resolved one", dg.layout.Name, tag, i)
				}
				if fresh == g && i == len(fds)-1 {
					tail = i
				}
			}
			if sh.off != off || sh.tail != tail {
				return fmt.Errorf("%s tag %d: cached off/tail %d/%d, want %d/%d", dg.layout.Name, tag, sh.off, sh.tail, off, tail)
			}
		}
	}
	for key, caps := range b.caps {
		fi := c.Prog.Funcs[key.index]
		ids := key.ids[:min(int(key.n), len(key.ids))]
		for _, s := range strings.Split(key.spill, ":")[1:] {
			id, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("%s: capture key spill %q: %v", fi.Name, key.spill, err)
			}
			ids = append(ids, int32(id))
		}
		env := make([]TypeGC, fi.TypeEnvLen)
		for i := range env {
			switch {
			case fi.RepWord != nil && fi.RepWord[i] >= 0:
				env[i] = c.FromRep(int(ids[1+fi.RepWord[i]]))
			case fi.Derivs != nil && fi.Derivs[i] != nil:
				env[i] = ApplyPath(byID[int(ids[0])], fi.Derivs[i])
			default:
				env[i] = b.Const()
			}
		}
		if len(caps) != len(fi.Captures) {
			return fmt.Errorf("%s: %d cached captures, function has %d", fi.Name, len(caps), len(fi.Captures))
		}
		for i, d := range fi.Captures {
			if c.FromDesc(d, env) != caps[i] {
				return fmt.Errorf("%s capture %d: cached routine is not the resolved one", fi.Name, i)
			}
		}
	}
	if b.Built != built {
		return fmt.Errorf("re-resolving cached components built %d new nodes", b.Built-built)
	}
	return nil
}

// closureProgram extends listProgram with three closure bodies: a
// monomorphic one capturing an int list, one whose type environment comes
// from a stored rep word, and one deriving it from the arrow routine's
// domain (Figure 4) — the three ways captures resolves its key.
func closureProgram(repr code.Repr) *code.Program {
	prog := listProgram(repr)
	intList := &code.TypeDesc{Kind: code.TDData, Index: 0, Args: []*code.TypeDesc{{Kind: code.TDConst}}}
	varList := &code.TypeDesc{Kind: code.TDData, Index: 0, Args: []*code.TypeDesc{{Kind: code.TDVar, Index: 0}}}
	prog.Funcs = []*code.FuncInfo{
		{Name: "ground", Captures: []*code.TypeDesc{intList}},
		{Name: "byrep", TypeEnvLen: 1, RepWord: []int{0}, NumRepWords: 1, Captures: []*code.TypeDesc{varList}},
		{Name: "byderiv", TypeEnvLen: 1, RepWord: []int{-1}, Derivs: [][]code.PathStep{{{Kind: 0}}},
			Captures: []*code.TypeDesc{{Kind: code.TDVar, Index: 0}}},
	}
	return prog
}

// TestTraceAllocatesNothingPerObject is the guard that keeps descriptor
// resolution (and fmt) out of the tracers: once a shape has been seen,
// copying or marking a thousand objects of it makes no host allocation
// under the strategies that read node-resident components (a mark/sweep
// End makes one, for the collection). Each case re-collects its
// structure several times over.
func TestTraceAllocatesNothingPerObject(t *testing.T) {
	intList := &code.TypeDesc{Kind: code.TDData, Index: 0, Args: []*code.TypeDesc{{Kind: code.TDConst}}}
	arrow := &code.TypeDesc{Kind: code.TDArrow, Args: []*code.TypeDesc{intList, {Kind: code.TDConst}}}
	cases := []struct {
		name    string
		desc    *code.TypeDesc
		objects int64
		build   func(h *heap.Heap, prog *code.Program) code.Word
	}{
		{"int list of 1000", intList, 1000, func(h *heap.Heap, _ *code.Program) code.Word {
			return mkList(h, make([]int64, 1000))
		}},
		{"tree of depth 10", &code.TypeDesc{Kind: code.TDData, Index: 1}, 1023, func(h *heap.Heap, _ *code.Program) code.Word {
			var grow func(d int) code.Word
			grow = func(d int) code.Word {
				if d == 0 {
					return 0
				}
				n := h.MustAlloc(3)
				h.SetField(n, 0, grow(d-1))
				h.SetField(n, 1, code.EncodeInt(h.Repr, int64(d)))
				h.SetField(n, 2, grow(d-1))
				return n
			}
			return grow(10)
		}},
		{"list of 300 closures", &code.TypeDesc{Kind: code.TDData, Index: 0, Args: []*code.TypeDesc{arrow}}, 900,
			func(h *heap.Heap, prog *code.Program) code.Word {
				rep := prog.Reps.Intern(code.TDConst, 0, nil)
				tail := code.Word(0)
				for i := 0; i < 300; i++ {
					fi := prog.Funcs[i%3]
					clos := h.MustAlloc(1 + fi.NumRepWords + 1)
					h.SetField(clos, 0, code.EncodeInt(h.Repr, int64(i%3)))
					if fi.NumRepWords == 1 {
						h.SetField(clos, 1, code.EncodeInt(h.Repr, int64(rep)))
					}
					h.SetField(clos, 1+fi.NumRepWords, mkList(h, []int64{int64(i)}))
					cell := h.MustAlloc(2)
					h.SetField(cell, 0, clos)
					h.SetField(cell, 1, tail)
					tail = cell
				}
				return tail
			}},
	}
	for _, tc := range cases {
		for _, strat := range []Strategy{StratCompiled, StratAppel} {
			for _, ms := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/ms=%v", tc.name, strat, ms), func(t *testing.T) {
					prog := closureProgram(code.ReprTagFree)
					h := heap.New(prog.Repr, 1<<14)
					if ms {
						h = heap.NewMarkSweep(prog.Repr, 1<<14)
					}
					c, err := New(prog, h, strat)
					if err != nil {
						t.Fatal(err)
					}
					root := tc.build(h, prog)
					g := c.FromDesc(tc.desc, nil)
					collect := func() {
						root = g.Trace(beginOwn(c), root)
						h.End()
					}
					collect() // first touch resolves the shapes
					before := c.Stats.ObjectsCopied
					if allocs := testing.AllocsPerRun(5, collect); allocs > 1 || allocs > 0 && !ms {
						t.Fatalf("%v host allocations per collection of %d objects", allocs, tc.objects)
					}
					if got := (c.Stats.ObjectsCopied - before) / 6; got != tc.objects {
						t.Fatalf("each collection visited %d objects, want %d", got, tc.objects)
					}
					if err := CheckComponents(c); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

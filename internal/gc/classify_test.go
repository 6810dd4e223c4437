package gc

// Kernel-classifier unit tests, in-package because classification is a
// plan-build detail. These pin the shapes the ROADMAP called out as
// uncovered — strings-of-ground (interned const indices) and nested flat
// tuples.

import (
	"testing"

	"tagfree/internal/code"
)

// classifierCollector builds the minimal collector classification needs:
// a builder and the datatype layouts field descriptors resolve against.
func classifierCollector(layouts ...*code.DataLayout) *Collector {
	return &Collector{Prog: &code.Program{Data: layouts}, b: newBuilder()}
}

var (
	descConst = &code.TypeDesc{Kind: code.TDConst}
	descVar0  = &code.TypeDesc{Kind: code.TDVar, Index: 0}
)

func descData(layout int, args ...*code.TypeDesc) *code.TypeDesc {
	return &code.TypeDesc{Kind: code.TDData, Index: layout, Args: args}
}

// listLayout is the builtin-list shape: one boxed constructor
// (head: param 0, tail: the list itself), no tag word.
func listLayout(self int) *code.DataLayout {
	return &code.DataLayout{
		Name:       "list",
		HasTagWord: false,
		Boxed: []code.CtorLayout{
			{Name: "::", Fields: []*code.TypeDesc{descVar0, descData(self, descVar0)}},
		},
	}
}

// treeLayout is the binary-tree shape: Node of tree * int * tree, tagless
// (one boxed constructor).
func treeLayout(self int) *code.DataLayout {
	return &code.DataLayout{
		Name:       "tree",
		HasTagWord: false,
		Boxed: []code.CtorLayout{
			{Name: "Node", Fields: []*code.TypeDesc{descData(self), descConst, descData(self)}},
		},
	}
}

func TestClassifyGroundShapes(t *testing.T) {
	c := classifierCollector()
	b := c.b
	ints := b.Const()
	flat := b.Tuple([]TypeGC{ints, ints})

	cases := []struct {
		name string
		g    TypeGC
		want kernel
	}{
		// Strings are interned constant-table indices (TDConst), so a
		// string slot — and any tuple of strings — is the const kernel,
		// same as ints: nothing on the heap to trace.
		{"string", c.FromDesc(descConst, nil), kConst},
		{"tuple-of-strings", b.Tuple([]TypeGC{ints, ints, ints}), kTupleFlat},
		{"ref-of-const", b.Ref(ints), kRefConst},
		{"flat-tuple", flat, kTupleFlat},
		{"nested-flat-tuple", b.Tuple([]TypeGC{flat, ints, flat}), kBoxFlat},
		{"ref-of-flat-tuple", b.Ref(flat), kBoxFlat},
		{"deep-nest", b.Tuple([]TypeGC{b.Tuple([]TypeGC{flat, flat}), ints}), kBoxFlat},
		{"tuple-with-arrow", b.Tuple([]TypeGC{ints, b.Arrow(ints, ints)}), kGeneric},
		{"bare-arrow", b.Arrow(ints, ints), kGeneric},
	}
	for _, tc := range cases {
		k, sk, bk := c.classify(tc.g)
		if k != tc.want {
			t.Errorf("%s: kernel = %d, want %d", tc.name, k, tc.want)
		}
		if (k == kBoxFlat) != (bk != nil) {
			t.Errorf("%s: box kernel presence mismatch (k=%d bk=%v)", tc.name, k, bk)
		}
		if sk != nil {
			t.Errorf("%s: unexpected spine kernel", tc.name)
		}
	}
}

// The nested-flat-tuple box kernel must mirror the tuple's layout exactly:
// sub-boxes at the boxed offsets in field order, const fields skipped.
func TestClassifyBoxKernelLayout(t *testing.T) {
	c := classifierCollector()
	b := c.b
	ints := b.Const()
	flat := b.Tuple([]TypeGC{ints, ints})
	g := b.Tuple([]TypeGC{flat, ints, flat})

	k, _, bk := c.classify(g)
	if k != kBoxFlat || bk == nil {
		t.Fatalf("classify = %d, %v; want kBoxFlat with a box kernel", k, bk)
	}
	if bk.size != 3 {
		t.Errorf("size = %d, want 3", bk.size)
	}
	if len(bk.subs) != 2 || bk.subs[0].off != 0 || bk.subs[1].off != 2 {
		t.Fatalf("subs = %+v, want boxed fields at offsets 0 and 2", bk.subs)
	}
	for _, s := range bk.subs {
		if s.box == nil || s.box.size != 2 || len(s.box.subs) != 0 {
			t.Errorf("sub at %d: inner box = %+v, want flat pair", s.off, s.box)
		}
	}
}

func TestClassifySpineShapes(t *testing.T) {
	c := classifierCollector(listLayout(0), treeLayout(1))
	b := c.b
	ints := b.Const()
	flat := b.Tuple([]TypeGC{ints, ints})

	intList := b.Data(0, c.Prog.Data[0], []TypeGC{ints})
	k, sk, _ := c.classify(intList)
	if k != kSpineFlat || sk == nil {
		t.Fatalf("int list: classify = %d, want kSpineFlat", k)
	}
	if sk.hasTag || sk.size[0] != 2 || sk.tail[0] != 1 || len(sk.steps[0]) != 0 {
		t.Errorf("int list kernel = %+v, want tagless size-2 tail-1 no steps", sk)
	}

	// List of flat tuples: the payload traces through a box step, the
	// tail still iterates.
	pairList := b.Data(0, c.Prog.Data[0], []TypeGC{flat})
	k, sk, _ = c.classify(pairList)
	if k != kSpineFlat || sk == nil {
		t.Fatalf("pair list: classify = %d, want kSpineFlat", k)
	}
	if len(sk.steps[0]) != 1 || sk.steps[0][0].kind != sfBox || sk.steps[0][0].off != 0 {
		t.Fatalf("pair list steps = %+v, want one sfBox at offset 0", sk.steps[0])
	}
	if sk.tail[0] != 1 {
		t.Errorf("pair list tail = %d, want 1", sk.tail[0])
	}

	// Binary tree: first child recurses (sfSelf), last child is the tail.
	tree := b.Data(1, c.Prog.Data[1], nil)
	k, sk, _ = c.classify(tree)
	if k != kSpineFlat || sk == nil {
		t.Fatalf("tree: classify = %d, want kSpineFlat", k)
	}
	if len(sk.steps[0]) != 1 || sk.steps[0][0].kind != sfSelf || sk.steps[0][0].off != 0 {
		t.Fatalf("tree steps = %+v, want one sfSelf at offset 0", sk.steps[0])
	}
	if sk.tail[0] != 2 {
		t.Errorf("tree tail = %d, want 2", sk.tail[0])
	}

	// A list of closures defeats the full-trace kernels entirely.
	closList := b.Data(0, c.Prog.Data[0], []TypeGC{b.Arrow(ints, ints)})
	if k, _, _ := c.classify(closList); k != kGeneric {
		t.Errorf("closure list: classify = %d, want kGeneric", k)
	}
}

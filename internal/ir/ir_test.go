package ir

import (
	"strings"
	"testing"

	"tagfree/internal/mlang/types"
)

func TestFindPath(t *testing.T) {
	a := types.ParamRef(0)
	b := types.ParamRef(1)
	listOf := func(e types.Type) types.Type {
		return &types.Con{Name: "list", Args: []types.Type{e}}
	}
	cases := []struct {
		ty   types.Type
		v    *types.Var
		want []PathStep
	}{
		{&types.Arrow{Dom: a, Cod: types.Int}, a, []PathStep{{Kind: PathDom}}},
		{&types.Arrow{Dom: types.Int, Cod: a}, a, []PathStep{{Kind: PathCod}}},
		{&types.Arrow{Dom: listOf(a), Cod: types.Int}, a,
			[]PathStep{{Kind: PathDom}, {Kind: PathElem, Index: 0}}},
		{&types.Arrow{Dom: &types.TupleT{Elems: []types.Type{types.Int, b}}, Cod: types.Int}, b,
			[]PathStep{{Kind: PathDom}, {Kind: PathElem, Index: 1}}},
		{&types.Arrow{Dom: &types.Arrow{Dom: a, Cod: types.Int}, Cod: types.Int}, a,
			[]PathStep{{Kind: PathDom}, {Kind: PathDom}}},
	}
	for i, c := range cases {
		got := FindPath(c.ty, c.v)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: path %v, want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d step %d: %v, want %v", i, j, got[j], c.want[j])
			}
		}
	}
	if FindPath(&types.Arrow{Dom: types.Int, Cod: types.Bool}, a) != nil {
		t.Fatal("absent variable should have no path")
	}
}

func TestWalkExprsOrder(t *testing.T) {
	s := func(i int) *Slot { return &Slot{Idx: i, Name: "s", Type: types.Int} }
	atom := &AConst{Kind: ConstInt, Val: 1}
	tree := &ELet{Dst: s(0), Rhs: &RAtom{A: atom}, Cont: &ECond{
		Cond: atom,
		Dst:  s(1),
		Then: &EJoin{A: atom},
		Else: &ELet{Dst: s(2), Rhs: &RAtom{A: atom}, Cont: &EJoin{A: atom}},
		Cont: &ERet{A: atom},
	}}
	var kinds []string
	WalkExprs(tree, func(e Expr) {
		switch e.(type) {
		case *ELet:
			kinds = append(kinds, "let")
		case *ECond:
			kinds = append(kinds, "cond")
		case *EJoin:
			kinds = append(kinds, "join")
		case *ERet:
			kinds = append(kinds, "ret")
		}
	})
	want := []string{"let", "cond", "join", "let", "join", "ret"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("walk order %v, want %v", kinds, want)
	}
}

func TestRhsAtomsCoverage(t *testing.T) {
	a := &AConst{Kind: ConstInt, Val: 1}
	b := &AConst{Kind: ConstInt, Val: 2}
	f := &Func{Name: "t"}
	g := &Global{Idx: 0, Name: "g", Type: types.Int}
	cases := []struct {
		r Rhs
		n int
	}{
		{&RAtom{A: a}, 1},
		{&RPrim{Op: PAdd, Args: []Atom{a, b}}, 2},
		{&RRef{Init: a}, 1},
		{&RDeref{Ref: a}, 1},
		{&RAssign{Ref: a, Val: b}, 2},
		{&RTuple{Elems: []Atom{a, b}}, 2},
		{&RCtor{Args: []Atom{a}}, 1},
		{&RField{Obj: a}, 1},
		{&RClosure{Target: f, Captures: []Atom{a, b}}, 2},
		{&RCall{Callee: f, Args: []Atom{a}}, 1},
		{&RCallClos{Clos: a, Arg: b}, 2},
		{&RBuiltin{Name: "print_int", Args: []Atom{a}}, 1},
		{&RSetGlobal{Global: g, Val: a}, 1},
		{&RPatchCapture{Clos: a, Val: b, Target: f}, 2},
	}
	for i, c := range cases {
		got := 0
		WalkAtoms(c.r, func(Atom) { got++ })
		if got != c.n {
			t.Errorf("case %d (%T): %d atoms, want %d", i, c.r, got, c.n)
		}
	}
}

func TestCanAllocateClassification(t *testing.T) {
	f := &Func{Name: "t"}
	allocating := []Rhs{
		&RRef{}, &RTuple{}, &RCtor{}, &RClosure{Target: f},
		&RCall{Callee: f, CanGC: true}, &RCallClos{CanGC: true},
	}
	for _, r := range allocating {
		if !r.CanAllocate() {
			t.Errorf("%T should be able to allocate", r)
		}
	}
	pure := []Rhs{
		&RAtom{}, &RPrim{}, &RDeref{}, &RAssign{}, &RField{},
		&RBuiltin{}, &RSetGlobal{Global: &Global{}}, &RPatchCapture{Target: f},
		&RCall{Callee: f, CanGC: false}, &RCallClos{CanGC: false},
	}
	for _, r := range pure {
		if r.CanAllocate() {
			t.Errorf("%T should not allocate", r)
		}
	}
}

func TestPrinterSmoke(t *testing.T) {
	f := &Func{ID: 0, Name: "demo", NParams: 1, RetType: types.Int}
	slot := &Slot{Idx: 0, Name: "x", Type: types.Int}
	f.Slots = []*Slot{slot}
	f.Body = &ERet{A: &ASlot{Slot: slot}}
	out := f.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "ret x") {
		t.Fatalf("printer output: %s", out)
	}
}

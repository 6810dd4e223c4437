package types

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tagfree/internal/mlang/ast"
	"tagfree/internal/mlang/parser"
)

// randType builds a random ground type of bounded depth.
func randType(rng *rand.Rand, depth int) Type {
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return Int
		case 1:
			return Bool
		default:
			return Unit
		}
	}
	switch rng.Intn(5) {
	case 0:
		return &Arrow{Dom: randType(rng, depth-1), Cod: randType(rng, depth-1)}
	case 1:
		n := 2 + rng.Intn(2)
		elems := make([]Type, n)
		for i := range elems {
			elems[i] = randType(rng, depth-1)
		}
		return &TupleT{Elems: elems}
	case 2:
		return &Con{Name: "ref", Args: []Type{randType(rng, depth-1)}}
	default:
		return randType(rng, depth-1)
	}
}

func TestEqualReflexiveProperty(t *testing.T) {
	f := func(seed int64, d uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := randType(rng, int(d%4))
		return Equal(ty, ty)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualDistinguishesStructure(t *testing.T) {
	a := &Arrow{Dom: Int, Cod: Bool}
	b := &Arrow{Dom: Bool, Cod: Int}
	if Equal(a, b) {
		t.Fatal("distinct arrows compare equal")
	}
	if Equal(&TupleT{Elems: []Type{Int, Int}}, &TupleT{Elems: []Type{Int, Int, Int}}) {
		t.Fatal("tuples of different widths compare equal")
	}
}

// TestUnifyMakesTypesEqual: after successfully checking a program whose
// annotation forces two sides together, the recorded types are Equal.
func TestUnifyMakesTypesEqual(t *testing.T) {
	prog, err := parser.Parse(`
let f (x : int) = x
let g y = f y
`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	sf := info.TopScheme["f"]
	sg := info.TopScheme["g"]
	if !Equal(sf.Body, sg.Body) {
		t.Fatalf("f and g should have equal types: %s vs %s", sf, sg)
	}
}

// TestResolveIdempotent: resolving twice equals resolving once, even
// through chained links.
func TestResolveIdempotent(t *testing.T) {
	v1 := &Var{ID: 1}
	v2 := &Var{ID: 2}
	v1.Link = v2
	v2.Link = Int
	r1 := Resolve(v1)
	r2 := Resolve(r1)
	if r1 != r2 || r1 != Type(Int) {
		t.Fatalf("resolve chain broken: %v %v", r1, r2)
	}
}

// TestTypeStringStable: printing is deterministic for the same type.
func TestTypeStringStable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := randType(rng, 3)
		return TypeString(ty) == TypeString(ty)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// hasFreeVar reports whether t mentions an unbound, un-generalized variable.
func hasFreeVar(t Type) bool {
	switch t := Resolve(t).(type) {
	case *Var:
		return t.Quant == nil
	case *Arrow:
		return hasFreeVar(t.Dom) || hasFreeVar(t.Cod)
	case *TupleT:
		for _, e := range t.Elems {
			if hasFreeVar(e) {
				return true
			}
		}
	case *Con:
		for _, a := range t.Args {
			if hasFreeVar(a) {
				return true
			}
		}
	}
	return false
}

// TestFreeVarsAfterDefaulting: a checked program has no free unquantified
// variables left in any recorded type.
func TestFreeVarsAfterDefaulting(t *testing.T) {
	prog, err := parser.Parse(`
let r = ref []
let rec map f xs = match xs with | [] -> [] | x :: rest -> f x :: map f rest
let main () = (match !r with | [] -> 0 | x :: _ -> x) + (match map (fun x -> x) [1] with | x :: _ -> x | [] -> 0)
`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	ast.WalkExprs(prog, func(e ast.Expr) {
		if ty := info.ExprType(e); hasFreeVar(ty) {
			t.Fatalf("expression at %v has free vars in type %s", e.Pos(), TypeString(ty))
		}
	})
}

// TestSchemeInstantiationFreshness: instantiating a polymorphic scheme at
// two occurrences must produce independent types (unifying one occurrence
// must not constrain the other).
func TestSchemeInstantiationFreshness(t *testing.T) {
	prog, err := parser.Parse(`
let id x = x
let a = id 1
let b = id true
`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := info.TopScheme["a"].String(); got != "int" {
		t.Errorf("a : %s", got)
	}
	if got := info.TopScheme["b"].String(); got != "bool" {
		t.Errorf("b : %s", got)
	}
}

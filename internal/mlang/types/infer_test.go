package types

import (
	"strings"
	"testing"

	"tagfree/internal/mlang/ast"
	"tagfree/internal/mlang/parser"
)

// checkSrc type-checks a program and returns its Info.
func checkSrc(t *testing.T, src string) *Info {
	t.Helper()
	_, info := checkProg(t, src)
	return info
}

// checkProg is checkSrc for tests that look facts up node by node.
func checkProg(t *testing.T, src string) (*ast.Program, *Info) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := Check(prog)
	if err != nil {
		t.Fatalf("check: %v\nsource:\n%s", err, src)
	}
	return prog, info
}

// wantErr asserts that checking fails and the message contains substr.
func wantErr(t *testing.T, src, substr string) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Check(prog)
	if err == nil {
		t.Fatalf("expected type error containing %q, got none\nsource:\n%s", substr, src)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err.Error(), substr)
	}
}

// topType returns the printed scheme of a top-level binding.
func topType(t *testing.T, info *Info, name string) string {
	t.Helper()
	s, ok := info.TopScheme[name]
	if !ok {
		t.Fatalf("no top-level binding %s", name)
	}
	return s.String()
}

func TestBasicTypes(t *testing.T) {
	info := checkSrc(t, `
let x = 1 + 2
let b = x < 3
let u = print_int x
let s = (1, true)
`)
	if got := topType(t, info, "x"); got != "int" {
		t.Errorf("x : %s, want int", got)
	}
	if got := topType(t, info, "b"); got != "bool" {
		t.Errorf("b : %s, want bool", got)
	}
	if got := topType(t, info, "u"); got != "unit" {
		t.Errorf("u : %s, want unit", got)
	}
	if got := topType(t, info, "s"); got != "int * bool" {
		t.Errorf("s : %s, want int * bool", got)
	}
}

func TestFunctionTypes(t *testing.T) {
	info := checkSrc(t, `
let add x y = x + y
let inc = add 1
`)
	if got := topType(t, info, "add"); got != "int -> int -> int" {
		t.Errorf("add : %s", got)
	}
	if got := topType(t, info, "inc"); got != "int -> int" {
		t.Errorf("inc : %s", got)
	}
}

func TestPolymorphicId(t *testing.T) {
	info := checkSrc(t, `
let id x = x
let a = id 1
let b = id true
`)
	if got := topType(t, info, "id"); got != "'a -> 'a" {
		t.Errorf("id : %s, want 'a -> 'a", got)
	}
	if got := topType(t, info, "a"); got != "int" {
		t.Errorf("a : %s", got)
	}
	if got := topType(t, info, "b"); got != "bool" {
		t.Errorf("b : %s", got)
	}
}

func TestPolymorphicList(t *testing.T) {
	info := checkSrc(t, `
let rec append xs ys =
  match xs with
  | [] -> ys
  | x :: rest -> x :: append rest ys
`)
	if got := topType(t, info, "append"); got != "'a list -> 'a list -> 'a list" {
		t.Errorf("append : %s", got)
	}
}

func TestRecGroupSharedVars(t *testing.T) {
	info := checkSrc(t, `
let rec f x = g x
and g y = f y
`)
	// f and g share their quantified variables through one group.
	sf := info.TopScheme["f"]
	sg := info.TopScheme["g"]
	if !sf.IsPoly() || !sg.IsPoly() {
		t.Fatalf("f and g should be polymorphic: f=%s g=%s", sf, sg)
	}
	if sf.Group != sg.Group {
		t.Errorf("f and g should share a generalization group")
	}
}

func TestHigherOrder(t *testing.T) {
	info := checkSrc(t, `
let rec map f xs =
  match xs with
  | [] -> []
  | x :: rest -> f x :: map f rest
let doubled = map (fun x -> x * 2) [1; 2; 3]
`)
	if got := topType(t, info, "map"); got != "('a -> 'b) -> 'a list -> 'b list" {
		t.Errorf("map : %s", got)
	}
	if got := topType(t, info, "doubled"); got != "int list" {
		t.Errorf("doubled : %s", got)
	}
}

func TestDatatypes(t *testing.T) {
	info := checkSrc(t, `
type 'a tree = Leaf | Node of 'a tree * 'a * 'a tree
let rec size t =
  match t with
  | Leaf -> 0
  | Node (l, _, r) -> 1 + size l + size r
let t1 = Node (Leaf, 5, Leaf)
`)
	if got := topType(t, info, "size"); got != "'a tree -> int" {
		t.Errorf("size : %s", got)
	}
	if got := topType(t, info, "t1"); got != "int tree" {
		t.Errorf("t1 : %s", got)
	}
	data := info.Datatypes["tree"]
	if data.BoxedCtors != 1 {
		t.Errorf("tree has %d boxed ctors, want 1 (tagless sum layout)", data.BoxedCtors)
	}
}

func TestVariantTags(t *testing.T) {
	info := checkSrc(t, `
type shape = Point | Circle of int | Rect of int * int | Origin
let s = Rect (3, 4)
`)
	data := info.Datatypes["shape"]
	if data.BoxedCtors != 2 {
		t.Errorf("shape: %d boxed ctors, want 2", data.BoxedCtors)
	}
	// Nullary tags count separately from boxed tags.
	var point, circle, rect, origin *CtorInfo
	for _, c := range data.Ctors {
		switch c.Name {
		case "Point":
			point = c
		case "Circle":
			circle = c
		case "Rect":
			rect = c
		case "Origin":
			origin = c
		}
	}
	if point.Tag != 0 || origin.Tag != 1 {
		t.Errorf("nullary tags: Point=%d Origin=%d, want 0,1", point.Tag, origin.Tag)
	}
	if circle.Tag != 0 || rect.Tag != 1 {
		t.Errorf("boxed tags: Circle=%d Rect=%d, want 0,1", circle.Tag, rect.Tag)
	}
}

func TestCtorSplat(t *testing.T) {
	prog, info := checkProg(t, `
type pair = P of int * bool
let p = P (1, true)
`)
	found := false
	ast.WalkExprs(prog, func(e ast.Expr) {
		if c, ok := e.(*ast.Ctor); ok && c.Name == "P" && info.CtorSplat(c) {
			found = true
		}
	})
	if !found {
		t.Errorf("P (1, true) should be a splatted constructor application")
	}
}

func TestRefs(t *testing.T) {
	info := checkSrc(t, `
let r = ref 0
let bump () = r := !r + 1
let v = !r
`)
	if got := topType(t, info, "r"); got != "int ref" {
		t.Errorf("r : %s", got)
	}
	if got := topType(t, info, "v"); got != "int" {
		t.Errorf("v : %s", got)
	}
}

func TestValueRestriction(t *testing.T) {
	// ref [] must not generalize; its element type defaults to int.
	info := checkSrc(t, `let r = ref []`)
	s := info.TopScheme["r"]
	if s.IsPoly() {
		t.Fatalf("ref [] generalized: %s — value restriction violated", s)
	}
	if got := s.String(); got != "int list ref" {
		t.Errorf("r : %s, want int list ref (weak var defaulted)", got)
	}
}

func TestValueRestrictionAllowsValues(t *testing.T) {
	info := checkSrc(t, `
let n = []
let pairfn = (fun x -> x, [])
`)
	if got := topType(t, info, "n"); got != "'a list" {
		t.Errorf("n : %s, want 'a list", got)
	}
}

func TestInstRecorded(t *testing.T) {
	prog, info := checkProg(t, `
let id x = x
let a = id 7
`)
	var found bool
	ast.WalkExprs(prog, func(e ast.Expr) {
		v, ok := e.(*ast.Var)
		if !ok || v.Name != "id" {
			return
		}
		inst := info.Inst(v)
		if len(inst) != 1 {
			t.Fatalf("id instantiation has %d types, want 1", len(inst))
		}
		if b, ok := Resolve(inst[0]).(*Base); !ok || b.Kind != IntK {
			t.Fatalf("id instantiated at %s, want int", TypeString(inst[0]))
		}
		found = true
	})
	if !found {
		t.Fatal("no instantiation recorded for id occurrence")
	}
}

func TestMonomorphicRecursion(t *testing.T) {
	// Inside its own body, a recursive function is monomorphic.
	wantErr(t, `
let rec f x = let _ = f true in f 1
let main () = f 2
`, "cannot unify")
}

func TestErrors(t *testing.T) {
	wantErr(t, `let x = 1 + true`, "cannot unify")
	wantErr(t, `let x = if 1 then 2 else 3`, "cannot unify")
	wantErr(t, `let x = if true then 1 else false`, "cannot unify")
	wantErr(t, `let x = y + 1`, "unbound variable")
	wantErr(t, `let f x = x x`, "occurs check")
	wantErr(t, `let x = match [1] with | [] -> 0 | true :: _ -> 1`, "cannot unify")
	wantErr(t, `type t = A of int
let x = A`, "expects 1 argument")
	wantErr(t, `let x = Bogus 3`, "unknown constructor")
	wantErr(t, `type t = A
type t = B`, "redeclared")
	wantErr(t, `let x = [1] = [2]`, "equality")
	wantErr(t, `let f x y = x = y
let main () = f [] []`, "equality")
	wantErr(t, `let x = (1 : bool)`, "cannot unify")
	wantErr(t, `let f (x : int) = x && true`, "cannot unify")
}

func TestAnnotationRestricts(t *testing.T) {
	info := checkSrc(t, `let f (x : int) = x`)
	if got := topType(t, info, "f"); got != "int -> int" {
		t.Errorf("f : %s, want int -> int", got)
	}
}

func TestNestedPolymorphicLet(t *testing.T) {
	info := checkSrc(t, `
let outer () =
  let pairup x = (x, x) in
  (pairup 1, pairup true)
`)
	if got := topType(t, info, "outer"); got != "unit -> (int * int) * (bool * bool)" {
		t.Errorf("outer : %s", got)
	}
}

func TestMatchPatternTypes(t *testing.T) {
	info := checkSrc(t, `
type 'a opt = None | Some of 'a
let get d o =
  match o with
  | None -> d
  | Some v -> v
`)
	if got := topType(t, info, "get"); got != "'a -> 'a opt -> 'a" {
		t.Errorf("get : %s", got)
	}
}

func TestSeqRequiresUnit(t *testing.T) {
	wantErr(t, `let x = 3; 4`, "cannot unify")
	checkSrc(t, `let x = print_int 3; 4`)
}

func TestPolymorphicEqualityRejected(t *testing.T) {
	wantErr(t, `let eq x y = x = y`, "polymorphic equality")
}

func TestStringType(t *testing.T) {
	info := checkSrc(t, `let greet () = print_string "hi"`)
	if got := topType(t, info, "greet"); got != "unit -> unit" {
		t.Errorf("greet : %s", got)
	}
}

func TestDeepDatatype(t *testing.T) {
	info := checkSrc(t, `
type expr =
  | Num of int
  | Add of expr * expr
  | Mul of expr * expr
  | Neg of expr

let rec eval e =
  match e with
  | Num n -> n
  | Add (a, b) -> eval a + eval b
  | Mul (a, b) -> eval a * eval b
  | Neg a -> 0 - eval a
`)
	if got := topType(t, info, "eval"); got != "expr -> int" {
		t.Errorf("eval : %s", got)
	}
	if info.Datatypes["expr"].BoxedCtors != 4 {
		t.Errorf("expr should have 4 boxed ctors")
	}
}

// Package ast defines the abstract syntax tree of MinML.
//
// A program is a sequence of declarations: type (datatype) declarations and
// value bindings. The expression language is a small ML: literals,
// variables, applications, anonymous functions, let/let-rec, conditionals,
// pattern matching, tuples, list sugar, references, and sequencing.
package ast

import (
	"fmt"
	"strings"

	"tagfree/internal/mlang/token"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// ---------------------------------------------------------------------------
// Type expressions (source-level type annotations and datatype declarations).
// ---------------------------------------------------------------------------

// TypeExpr is a source-level type expression.
type TypeExpr interface {
	Node
	typeExpr()
	String() string
}

// TEName is a named type, possibly applied to arguments: int, 'a list,
// ('a,'b) pair.
type TEName struct {
	P    token.Pos
	Name string
	Args []TypeExpr
}

// TEVar is a type variable 'a.
type TEVar struct {
	P    token.Pos
	Name string
}

// TEArrow is a function type t1 -> t2.
type TEArrow struct {
	P        token.Pos
	Dom, Cod TypeExpr
}

// TETuple is a product type t1 * t2 * ...
type TETuple struct {
	P     token.Pos
	Elems []TypeExpr
}

func (t *TEName) Pos() token.Pos  { return t.P }
func (t *TEVar) Pos() token.Pos   { return t.P }
func (t *TEArrow) Pos() token.Pos { return t.P }
func (t *TETuple) Pos() token.Pos { return t.P }

func (*TEName) typeExpr()  {}
func (*TEVar) typeExpr()   {}
func (*TEArrow) typeExpr() {}
func (*TETuple) typeExpr() {}

func (t *TEName) String() string {
	if len(t.Args) == 0 {
		return t.Name
	}
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = a.String()
	}
	if len(parts) == 1 {
		return parts[0] + " " + t.Name
	}
	return "(" + strings.Join(parts, ", ") + ") " + t.Name
}

func (t *TEVar) String() string   { return "'" + t.Name }
func (t *TEArrow) String() string { return "(" + t.Dom.String() + " -> " + t.Cod.String() + ")" }
func (t *TETuple) String() string {
	parts := make([]string, len(t.Elems))
	for i, e := range t.Elems {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, " * ") + ")"
}

// ---------------------------------------------------------------------------
// Patterns.
// ---------------------------------------------------------------------------

// Pattern is a match pattern. Index is the node's dense index among the
// program's patterns (0 <= Index < Program.Pats), stamped by the parser: the
// checker's per-pattern tables are slices indexed by it.
type Pattern interface {
	Node
	pattern()
	Index() int
	String() string
}

// PWild is the wildcard pattern _.
type PWild struct {
	P  token.Pos
	ID int
}

// PVar binds a variable.
type PVar struct {
	P    token.Pos
	ID   int
	Name string
}

// PInt matches an integer literal.
type PInt struct {
	P   token.Pos
	ID  int
	Val int64
}

// PBool matches true or false.
type PBool struct {
	P   token.Pos
	ID  int
	Val bool
}

// PUnit matches ().
type PUnit struct {
	P  token.Pos
	ID int
}

// PTuple matches a tuple.
type PTuple struct {
	P     token.Pos
	ID    int
	Elems []Pattern
}

// PCtor matches a datatype constructor application. Nil/empty Args matches a
// nullary constructor. List patterns desugar to PCtor{"::"} and PCtor{"[]"}.
type PCtor struct {
	P    token.Pos
	ID   int
	Name string
	Args []Pattern
}

func (p *PWild) Pos() token.Pos  { return p.P }
func (p *PVar) Pos() token.Pos   { return p.P }
func (p *PInt) Pos() token.Pos   { return p.P }
func (p *PBool) Pos() token.Pos  { return p.P }
func (p *PUnit) Pos() token.Pos  { return p.P }
func (p *PTuple) Pos() token.Pos { return p.P }
func (p *PCtor) Pos() token.Pos  { return p.P }

func (p *PWild) Index() int  { return p.ID }
func (p *PVar) Index() int   { return p.ID }
func (p *PInt) Index() int   { return p.ID }
func (p *PBool) Index() int  { return p.ID }
func (p *PUnit) Index() int  { return p.ID }
func (p *PTuple) Index() int { return p.ID }
func (p *PCtor) Index() int  { return p.ID }

func (*PWild) pattern()  {}
func (*PVar) pattern()   {}
func (*PInt) pattern()   {}
func (*PBool) pattern()  {}
func (*PUnit) pattern()  {}
func (*PTuple) pattern() {}
func (*PCtor) pattern()  {}

func (p *PWild) String() string { return "_" }
func (p *PVar) String() string  { return p.Name }
func (p *PInt) String() string  { return fmt.Sprint(p.Val) }
func (p *PBool) String() string { return fmt.Sprint(p.Val) }
func (p *PUnit) String() string { return "()" }
func (p *PTuple) String() string {
	parts := make([]string, len(p.Elems))
	for i, e := range p.Elems {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
func (p *PCtor) String() string {
	if p.Name == "::" && len(p.Args) == 2 {
		return p.Args[0].String() + " :: " + p.Args[1].String()
	}
	if len(p.Args) == 0 {
		return p.Name
	}
	parts := make([]string, len(p.Args))
	for i, a := range p.Args {
		parts[i] = a.String()
	}
	return p.Name + "(" + strings.Join(parts, ", ") + ")"
}

// ---------------------------------------------------------------------------
// Expressions.
// ---------------------------------------------------------------------------

// Expr is an expression. Index is the node's dense index among the program's
// expressions (0 <= Index < Program.Exprs), stamped by the parser: the
// checker's per-expression tables are slices indexed by it.
type Expr interface {
	Node
	expr()
	Index() int
}

// IntLit is an integer literal.
type IntLit struct {
	P   token.Pos
	ID  int
	Val int64
}

// BoolLit is true or false.
type BoolLit struct {
	P   token.Pos
	ID  int
	Val bool
}

// UnitLit is ().
type UnitLit struct {
	P  token.Pos
	ID int
}

// StrLit is a string literal (only used by print_string).
type StrLit struct {
	P   token.Pos
	ID  int
	Val string
}

// Var is a variable reference.
type Var struct {
	P    token.Pos
	ID   int
	Name string
}

// Ctor is a constructor application; nullary constructors have no Args.
// List literals and :: desugar into Ctor nodes.
type Ctor struct {
	P    token.Pos
	ID   int
	Name string
	Args []Expr
}

// App is a function application f x (curried; multiple arguments are nested
// Apps).
type App struct {
	P       token.Pos
	ID      int
	Fn, Arg Expr
}

// Lam is an anonymous function fun x -> e (single parameter; multi-parameter
// functions are nested lambdas). ParamAnn is an optional source annotation on
// the parameter and may be nil.
type Lam struct {
	P        token.Pos
	ID       int
	Param    string
	ParamAnn TypeExpr
	Body     Expr
}

// Let is let [rec] bindings in body. Each binding may carry parameters
// (sugar for nested lambdas, already expanded by the parser) so Bound is
// always a plain expression.
type Let struct {
	P     token.Pos
	ID    int
	Rec   bool
	Binds []Bind
	Body  Expr
}

// Bind is a single let binding.
type Bind struct {
	P    token.Pos
	Name string
	Expr Expr
	Ann  TypeExpr // optional annotation, may be nil
}

// If is a conditional.
type If struct {
	P                token.Pos
	ID               int
	Cond, Then, Else Expr
}

// Match is pattern matching.
type Match struct {
	P     token.Pos
	ID    int
	Scrut Expr
	Arms  []Arm
}

// Arm is one match arm.
type Arm struct {
	P    token.Pos
	Pat  Pattern
	Body Expr
}

// Tuple is (e1, e2, ...), always with at least two elements.
type Tuple struct {
	P     token.Pos
	ID    int
	Elems []Expr
}

// Prim is a primitive operator application: arithmetic, comparison, boolean,
// and reference operators.
type Prim struct {
	P    token.Pos
	ID   int
	Op   PrimOp
	Args []Expr
}

// Seq is e1; e2 — evaluate e1 for effect, yield e2.
type Seq struct {
	P           token.Pos
	ID          int
	First, Rest Expr
}

// Ann is a type-annotated expression (e : t).
type Ann struct {
	P    token.Pos
	ID   int
	Expr Expr
	Type TypeExpr
}

func (e *IntLit) Pos() token.Pos  { return e.P }
func (e *BoolLit) Pos() token.Pos { return e.P }
func (e *UnitLit) Pos() token.Pos { return e.P }
func (e *StrLit) Pos() token.Pos  { return e.P }
func (e *Var) Pos() token.Pos     { return e.P }
func (e *Ctor) Pos() token.Pos    { return e.P }
func (e *App) Pos() token.Pos     { return e.P }
func (e *Lam) Pos() token.Pos     { return e.P }
func (e *Let) Pos() token.Pos     { return e.P }
func (e *If) Pos() token.Pos      { return e.P }
func (e *Match) Pos() token.Pos   { return e.P }
func (e *Tuple) Pos() token.Pos   { return e.P }
func (e *Prim) Pos() token.Pos    { return e.P }
func (e *Seq) Pos() token.Pos     { return e.P }
func (e *Ann) Pos() token.Pos     { return e.P }

func (e *IntLit) Index() int  { return e.ID }
func (e *BoolLit) Index() int { return e.ID }
func (e *UnitLit) Index() int { return e.ID }
func (e *StrLit) Index() int  { return e.ID }
func (e *Var) Index() int     { return e.ID }
func (e *Ctor) Index() int    { return e.ID }
func (e *App) Index() int     { return e.ID }
func (e *Lam) Index() int     { return e.ID }
func (e *Let) Index() int     { return e.ID }
func (e *If) Index() int      { return e.ID }
func (e *Match) Index() int   { return e.ID }
func (e *Tuple) Index() int   { return e.ID }
func (e *Prim) Index() int    { return e.ID }
func (e *Seq) Index() int     { return e.ID }
func (e *Ann) Index() int     { return e.ID }

func (*IntLit) expr()  {}
func (*BoolLit) expr() {}
func (*UnitLit) expr() {}
func (*StrLit) expr()  {}
func (*Var) expr()     {}
func (*Ctor) expr()    {}
func (*App) expr()     {}
func (*Lam) expr()     {}
func (*Let) expr()     {}
func (*If) expr()      {}
func (*Match) expr()   {}
func (*Tuple) expr()   {}
func (*Prim) expr()    {}
func (*Seq) expr()     {}
func (*Ann) expr()     {}

// PrimOp enumerates the built-in operators.
type PrimOp int

// Primitive operators. Ref/Deref/Assign are the ML reference operations;
// the rest are arithmetic, comparison and boolean operators on base types.
const (
	OpAdd PrimOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd // strict boolean and (short-circuit is desugared to If)
	OpOr
	OpNot
	OpRef    // ref e — allocate a reference cell
	OpDeref  // !e
	OpAssign // e1 := e2
)

var primNames = map[PrimOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "mod",
	OpNeg: "~-", OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpAnd: "&&", OpOr: "||", OpNot: "not",
	OpRef: "ref", OpDeref: "!", OpAssign: ":=",
}

// String returns the surface spelling of the operator.
func (op PrimOp) String() string {
	if s, ok := primNames[op]; ok {
		return s
	}
	return fmt.Sprintf("PrimOp(%d)", int(op))
}

// ---------------------------------------------------------------------------
// Declarations and programs.
// ---------------------------------------------------------------------------

// Decl is a top-level declaration.
type Decl interface {
	Node
	decl()
}

// TypeDecl declares a datatype: type ('a,'b) name = C1 of t * t | C2 | ...
type TypeDecl struct {
	P      token.Pos
	Name   string
	Params []string // type parameter names, without the quote
	Ctors  []CtorDecl
}

// CtorDecl is one constructor declaration within a datatype.
type CtorDecl struct {
	P    token.Pos
	Name string
	Args []TypeExpr // empty for nullary constructors
}

// ValDecl is a top-level value binding: let [rec] name args = expr
// (and-joined groups become one ValDecl with several binds).
type ValDecl struct {
	P     token.Pos
	Rec   bool
	Binds []Bind
}

func (d *TypeDecl) Pos() token.Pos { return d.P }
func (d *ValDecl) Pos() token.Pos  { return d.P }

func (*TypeDecl) decl() {}
func (*ValDecl) decl()  {}

// Program is a parsed compilation unit. Exprs and Pats count its expression
// and pattern nodes: every node's Index is below them.
type Program struct {
	Decls []Decl
	Exprs int
	Pats  int
}

// WalkExprs visits every expression of the program in preorder, declarations
// and their bindings in source order.
func WalkExprs(prog *Program, visit func(Expr)) {
	for _, d := range prog.Decls {
		if vd, ok := d.(*ValDecl); ok {
			for _, b := range vd.Binds {
				walkExpr(b.Expr, visit)
			}
		}
	}
}

func walkExpr(e Expr, visit func(Expr)) {
	visit(e)
	switch e := e.(type) {
	case *Ctor:
		for _, a := range e.Args {
			walkExpr(a, visit)
		}
	case *App:
		walkExpr(e.Fn, visit)
		walkExpr(e.Arg, visit)
	case *Lam:
		walkExpr(e.Body, visit)
	case *Let:
		for _, b := range e.Binds {
			walkExpr(b.Expr, visit)
		}
		walkExpr(e.Body, visit)
	case *If:
		walkExpr(e.Cond, visit)
		walkExpr(e.Then, visit)
		walkExpr(e.Else, visit)
	case *Match:
		walkExpr(e.Scrut, visit)
		for _, arm := range e.Arms {
			walkExpr(arm.Body, visit)
		}
	case *Tuple:
		for _, el := range e.Elems {
			walkExpr(el, visit)
		}
	case *Prim:
		for _, a := range e.Args {
			walkExpr(a, visit)
		}
	case *Seq:
		walkExpr(e.First, visit)
		walkExpr(e.Rest, visit)
	case *Ann:
		walkExpr(e.Expr, visit)
	}
}

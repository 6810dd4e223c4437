// Package types implements Hindley–Milner type inference for MinML.
//
// Inference uses mutable unification variables with Rémy-style levels for
// efficient let-generalization, and the standard ML value restriction so
// that reference cells remain sound. Beyond checking, the package records
// the information Goldberg-style tag-free garbage collection needs:
//
//   - the resolved type of every expression and pattern,
//   - the type scheme of every binding,
//   - the instantiation (the types chosen for the quantified variables) at
//     every occurrence of a polymorphic variable or datatype constructor.
//
// Instantiations are what the compiler later turns into the type_gc_routine
// parameters of the paper's polymorphic collection scheme (§3).
package types

import (
	"fmt"
	"strings"
)

// Type is a semantic type. The concrete types are *Base, *Var, *Arrow,
// *TupleT and *Con.
type Type interface {
	isType()
}

// BaseKind enumerates the built-in base types.
type BaseKind int

// Built-in base types.
const (
	IntK BaseKind = iota
	BoolK
	UnitK
	StringK
)

// Base is a built-in base type. Use the package-level singletons Int, Bool,
// Unit and String.
type Base struct{ Kind BaseKind }

// Singleton base types.
var (
	Int    = &Base{IntK}
	Bool   = &Base{BoolK}
	Unit   = &Base{UnitK}
	String = &Base{StringK}
)

// Var is a unification variable. A Var with non-nil Link has been unified
// and behaves as its link; Resolve follows links. A Var with Quant != nil
// has been generalized into a scheme and must never be unified afterwards —
// it appears in types only as a bound-variable reference.
type Var struct {
	ID    int
	Level int
	Link  Type
	Quant *QuantInfo
}

// QuantInfo marks a generalized variable: its index among the quantified
// variables of the owning generalization group. Datatype parameter
// references (ParamRef) have a nil Owner.
type QuantInfo struct {
	Index int
	Owner *GenGroup
}

// GenGroup is a quantification group: the set of variables generalized
// together by one let or let-rec binding group. Mutually recursive bindings
// can share type variables, so they share one group; every binding in the
// group quantifies the full variable list (a standard SCC-based
// generalization). Later compiler stages use the group as the identity that
// maps quantified variables to a function's type parameters.
type GenGroup struct {
	Vars []*Var
}

// Arrow is a function type Dom -> Cod.
type Arrow struct{ Dom, Cod Type }

// TupleT is a product type with at least two components.
type TupleT struct{ Elems []Type }

// Con is an applied named type constructor: datatypes declared by the
// program plus the built-ins "list" and "ref".
type Con struct {
	Name string
	Args []Type
	Data *Data // the declaring datatype; nil for "ref"
}

func (*Base) isType()   {}
func (*Var) isType()    {}
func (*Arrow) isType()  {}
func (*TupleT) isType() {}
func (*Con) isType()    {}

// Resolve follows unification links until it reaches a non-link type.
func Resolve(t Type) Type {
	for {
		v, ok := t.(*Var)
		if !ok || v.Link == nil {
			return t
		}
		t = v.Link
	}
}

// Scheme is a polymorphic type scheme quantifying its group's variables
// over Body. A nil Group means the scheme is monomorphic.
type Scheme struct {
	Group *GenGroup
	Body  Type
}

// Mono wraps a monomorphic type as a scheme with no quantified variables.
func Mono(t Type) *Scheme { return &Scheme{Body: t} }

// Vars returns the quantified variables (nil for monomorphic schemes).
func (s *Scheme) Vars() []*Var {
	if s.Group == nil {
		return nil
	}
	return s.Group.Vars
}

// IsPoly reports whether the scheme quantifies at least one variable.
func (s *Scheme) IsPoly() bool { return len(s.Vars()) > 0 }

// Data describes a declared datatype (including the built-in list type).
type Data struct {
	Name   string
	Params int
	Ctors  []*CtorInfo
	// BoxedCtors is the number of constructors with at least one argument.
	// When it is <= 1 the representation needs no discriminant word on boxed
	// values (the "tagless sum" layout; lists and options enjoy this).
	BoxedCtors int
}

// CtorInfo describes one constructor of a datatype.
type CtorInfo struct {
	Name string
	Data *Data
	// Tag is the constructor's index in a per-kind numbering: nullary
	// constructors are numbered 0.. among nullary ones (they are represented
	// unboxed by this number), and constructors with arguments are numbered
	// 0.. among boxed ones (the number is stored as the discriminant when
	// the datatype has more than one boxed constructor).
	Tag int
	// Args are the field types, expressed over the datatype's parameters,
	// which appear as *Var with Quant set and Owner == nil (indices 0..Params-1).
	Args []Type
}

// IsNullary reports whether the constructor has no arguments.
func (c *CtorInfo) IsNullary() bool { return len(c.Args) == 0 }

// ParamRef constructs a reference to datatype parameter i, used in CtorInfo
// field types.
func ParamRef(i int) *Var {
	return &Var{ID: -1 - i, Quant: &QuantInfo{Index: i}}
}

// Instantiate substitutes args for the datatype parameters in the
// constructor's field types. The result is read-only: a datatype without
// parameters has nothing to substitute and gets its field types as declared.
func (c *CtorInfo) Instantiate(args []Type) []Type {
	if c.Data.Params == 0 {
		return c.Args
	}
	out := make([]Type, len(c.Args))
	for i, a := range c.Args {
		out[i] = SubstGroup(a, nil, args) // parameter references have no owner
	}
	return out
}

// ---------------------------------------------------------------------------
// Printing.
// ---------------------------------------------------------------------------

// TypeString renders a type using ML syntax with 'a-style names for
// quantified and free variables.
func TypeString(t Type) string {
	names := map[int]string{}
	return typeString(t, names, false)
}

// SchemeString renders a type scheme.
func (s *Scheme) String() string {
	names := map[int]string{}
	for i, v := range s.Vars() {
		names[v.ID] = tvName(i)
	}
	return typeString(s.Body, names, false)
}

func tvName(i int) string {
	name := string(rune('a' + i%26))
	if i >= 26 {
		name += fmt.Sprint(i / 26)
	}
	return "'" + name
}

func typeString(t Type, names map[int]string, paren bool) string {
	switch t := Resolve(t).(type) {
	case *Base:
		switch t.Kind {
		case IntK:
			return "int"
		case BoolK:
			return "bool"
		case UnitK:
			return "unit"
		case StringK:
			return "string"
		}
	case *Var:
		if n, ok := names[t.ID]; ok {
			return n
		}
		var n string
		if t.Quant != nil {
			n = tvName(t.Quant.Index)
		} else {
			n = "'_" + fmt.Sprint(len(names))
		}
		names[t.ID] = n
		return n
	case *Arrow:
		s := typeString(t.Dom, names, true) + " -> " + typeString(t.Cod, names, false)
		if paren {
			return "(" + s + ")"
		}
		return s
	case *TupleT:
		parts := make([]string, len(t.Elems))
		for i, e := range t.Elems {
			parts[i] = typeString(e, names, true)
		}
		s := strings.Join(parts, " * ")
		if paren {
			return "(" + s + ")"
		}
		return s
	case *Con:
		if len(t.Args) == 0 {
			return t.Name
		}
		if len(t.Args) == 1 {
			return typeString(t.Args[0], names, true) + " " + t.Name
		}
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			parts[i] = typeString(a, names, false)
		}
		return "(" + strings.Join(parts, ", ") + ") " + t.Name
	}
	return "?"
}

// Equal reports structural equality of two resolved types. Quantified
// variables are equal when they reference the same index and owner.
func Equal(a, b Type) bool {
	a, b = Resolve(a), Resolve(b)
	switch a := a.(type) {
	case *Base:
		b, ok := b.(*Base)
		return ok && a.Kind == b.Kind
	case *Var:
		b, ok := b.(*Var)
		if !ok {
			return false
		}
		if a.Quant != nil && b.Quant != nil {
			return a.Quant.Owner == b.Quant.Owner && a.Quant.Index == b.Quant.Index
		}
		return a == b
	case *Arrow:
		b, ok := b.(*Arrow)
		return ok && Equal(a.Dom, b.Dom) && Equal(a.Cod, b.Cod)
	case *TupleT:
		b, ok := b.(*TupleT)
		if !ok || len(a.Elems) != len(b.Elems) {
			return false
		}
		for i := range a.Elems {
			if !Equal(a.Elems[i], b.Elems[i]) {
				return false
			}
		}
		return true
	case *Con:
		b, ok := b.(*Con)
		if !ok || a.Name != b.Name || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !Equal(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

package lower

import (
	"tagfree/internal/ir"
	"tagfree/internal/mlang/ast"
	"tagfree/internal/mlang/types"
)

// binding is what a name resolves to during lowering.
type binding interface{ binding() }

// slotBinding: a local slot of the current function. Every occurrence of the
// name reads it through the one atom.
type slotBinding struct{ atom ir.ASlot }

func bindSlot(slot *ir.Slot) *slotBinding { return &slotBinding{atom: ir.ASlot{Slot: slot}} }

// captureBinding: a capture of the current function (index into Captures).
type captureBinding struct {
	index int
	typ   types.Type
}

// globalBinding: a top-level value.
type globalBinding struct{ global *ir.Global }

// funcBinding: a known function, callable directly. inst, when non-nil,
// composes an alias instantiation: entry i gives the type (over the alias's
// own quantified variables) at which the target's i-th type variable is
// instantiated.
type funcBinding struct {
	fn     *ir.Func
	scheme *types.Scheme
	inst   []types.Type
}

// builtinBinding: a runtime builtin (print_int etc.).
type builtinBinding struct {
	name string
	typ  types.Type // dom -> cod
}

func (*slotBinding) binding()    {}
func (*captureBinding) binding() {}
func (*globalBinding) binding()  {}
func (*funcBinding) binding()    {}
func (*builtinBinding) binding() {}

// scope is a persistent chain of name bindings.
type scope struct {
	parent *scope
	name   string
	b      binding
}

func (s *scope) bind(name string, b binding) *scope {
	return &scope{parent: s, name: name, b: b}
}

func (s *scope) lookup(name string) (binding, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if cur.name == name {
			return cur.b, true
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Free variables.
// ---------------------------------------------------------------------------

// freeVars returns the free variable names of an expression, in first-use
// order (deterministic so closure layouts are stable).
func freeVars(e ast.Expr) []string {
	seen := map[string]bool{}
	var out []string
	var walkP func(p ast.Pattern, bound map[string]bool)
	walkP = func(p ast.Pattern, bound map[string]bool) {
		switch p := p.(type) {
		case *ast.PVar:
			bound[p.Name] = true
		case *ast.PTuple:
			for _, el := range p.Elems {
				walkP(el, bound)
			}
		case *ast.PCtor:
			for _, a := range p.Args {
				walkP(a, bound)
			}
		}
	}
	var walk func(e ast.Expr, bound map[string]bool)
	add := func(name string, bound map[string]bool) {
		if !bound[name] && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	extend := func(bound map[string]bool, names ...string) map[string]bool {
		nb := make(map[string]bool, len(bound)+len(names))
		for k := range bound {
			nb[k] = true
		}
		for _, n := range names {
			nb[n] = true
		}
		return nb
	}
	walk = func(e ast.Expr, bound map[string]bool) {
		switch e := e.(type) {
		case *ast.IntLit, *ast.BoolLit, *ast.UnitLit, *ast.StrLit:
		case *ast.Var:
			add(e.Name, bound)
		case *ast.Ctor:
			for _, a := range e.Args {
				walk(a, bound)
			}
		case *ast.App:
			walk(e.Fn, bound)
			walk(e.Arg, bound)
		case *ast.Lam:
			walk(e.Body, extend(bound, e.Param))
		case *ast.Let:
			inner := bound
			if e.Rec {
				names := make([]string, len(e.Binds))
				for i, b := range e.Binds {
					names[i] = b.Name
				}
				inner = extend(bound, names...)
				for _, b := range e.Binds {
					walk(b.Expr, inner)
				}
			} else {
				for _, b := range e.Binds {
					walk(b.Expr, bound)
				}
				names := make([]string, len(e.Binds))
				for i, b := range e.Binds {
					names[i] = b.Name
				}
				inner = extend(bound, names...)
			}
			walk(e.Body, inner)
		case *ast.If:
			walk(e.Cond, bound)
			walk(e.Then, bound)
			walk(e.Else, bound)
		case *ast.Match:
			walk(e.Scrut, bound)
			for _, arm := range e.Arms {
				armBound := extend(bound)
				walkP(arm.Pat, armBound)
				walk(arm.Body, armBound)
			}
		case *ast.Tuple:
			for _, el := range e.Elems {
				walk(el, bound)
			}
		case *ast.Prim:
			for _, a := range e.Args {
				walk(a, bound)
			}
		case *ast.Seq:
			walk(e.First, bound)
			walk(e.Rest, bound)
		case *ast.Ann:
			walk(e.Expr, bound)
		}
	}
	walk(e, map[string]bool{})
	return out
}

// ---------------------------------------------------------------------------
// Type environment collection.
// ---------------------------------------------------------------------------

// quantVarsIn collects the owned quantified variables occurring in a type,
// appending new ones to the accumulator in occurrence order.
func quantVarsIn(t types.Type, acc []*types.Var) []*types.Var {
	switch t := types.Resolve(t).(type) {
	case *types.Var:
		if t.Quant != nil && t.Quant.Owner != nil {
			for _, v := range acc {
				if v == t {
					return acc
				}
			}
			return append(acc, t)
		}
	case *types.Arrow:
		acc = quantVarsIn(t.Dom, acc)
		acc = quantVarsIn(t.Cod, acc)
	case *types.TupleT:
		for _, e := range t.Elems {
			acc = quantVarsIn(e, acc)
		}
	case *types.Con:
		for _, a := range t.Args {
			acc = quantVarsIn(a, acc)
		}
	}
	return acc
}

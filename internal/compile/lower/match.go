package lower

import (
	"tagfree/internal/ir"
	"tagfree/internal/mlang/ast"
	"tagfree/internal/mlang/types"
)

// lowerMatch compiles pattern matching into a chain of conditional arm
// tests. Each arm computes a boolean "matched" value (with short-circuit
// conditionals guarding representation-dependent field loads), then either
// binds the pattern variables and runs the arm body, or falls through to
// the next arm. A fall-through past the last arm is a runtime match
// failure.
//
// Discrimination uses only language-level representation facts — nullary
// constructor constants, boxedness, and discriminant words on datatypes
// with several boxed constructors — exactly the variant-record treatment of
// §2.3 of the paper: the discriminant is program data, not a GC tag.
func (c *fctx) lowerMatch(m *ast.Match, em *emitter) ir.Atom {
	scrut := c.lowerExpr(m.Scrut, em)
	dst := c.newSlot("", c.typeOf(m))

	// The first arm's test code is emitted directly into em; its ECond
	// carries the match's destination and continuation. Subsequent arms
	// live in the Else trees with nil Dst/Cont (inheriting the join).
	var build func(i int) ir.Expr
	build = func(i int) ir.Expr {
		if i >= len(m.Arms) {
			return &ir.EMatchFail{}
		}
		arm := m.Arms[i]
		armEm := newEmitter()
		matched := c.genTest(arm.Pat, scrut, armEm)

		bodyEm := newEmitter()
		saved := c.scope
		c.genBind(arm.Pat, scrut, bodyEm)
		bodyA := c.lowerExpr(arm.Body, bodyEm)
		c.scope = saved
		bodyTree := bodyEm.finish(&ir.EJoin{A: bodyA})

		if matched == nil {
			// Irrefutable arm: no test needed; later arms are dead.
			return armEm.finish(seqInto(bodyTree))
		}
		return armEm.finish(&ir.ECond{
			Cond: matched,
			Then: bodyTree,
			Else: build(i + 1),
		})
	}

	first := m.Arms[0]
	armEm := em // first arm's tests run unconditionally in the main stream
	matched := c.genTest(first.Pat, scrut, armEm)

	bodyEm := newEmitter()
	saved := c.scope
	c.genBind(first.Pat, scrut, bodyEm)
	bodyA := c.lowerExpr(first.Body, bodyEm)
	c.scope = saved
	bodyTree := bodyEm.finish(&ir.EJoin{A: bodyA})

	if matched == nil {
		// Single irrefutable arm: splice the body inline by binding the
		// join value through a conditional on true.
		matched = &ir.AConst{Kind: ir.ConstBool, Val: 1}
	}
	em.cond(dst, matched, bodyTree, build(1))
	return &ir.ASlot{Slot: dst}
}

// seqInto converts a tree ending in EJoin into the same tree (placeholder
// for potential future inline splicing; kept trivial for clarity).
func seqInto(e ir.Expr) ir.Expr { return e }

// ---------------------------------------------------------------------------
// Match tests.
// ---------------------------------------------------------------------------

// genTest emits code computing whether pat matches v and returns the bool
// atom, or nil when the pattern is irrefutable.
func (c *fctx) genTest(pat ast.Pattern, v ir.Atom, em *emitter) ir.Atom {
	switch p := pat.(type) {
	case *ast.PWild, *ast.PVar, *ast.PUnit:
		return nil

	case *ast.PInt:
		return c.emitPrimBool(ir.PEq, v, &ir.AConst{Kind: ir.ConstInt, Val: p.Val}, em)

	case *ast.PBool:
		want := int64(0)
		if p.Val {
			want = 1
		}
		return c.emitPrimBool(ir.PEq, v, &ir.AConst{Kind: ir.ConstBool, Val: want}, em)

	case *ast.PTuple:
		// Tuples always match structurally; only the element tests matter.
		elemTypes := c.tupleElemTypes(pat)
		var acc ir.Atom
		for i, el := range p.Elems {
			if patternTestFree(el) {
				continue // no test to run: don't load the field here
			}
			i, el := i, el
			acc = c.andLazy(acc, em, func(em2 *emitter) ir.Atom {
				f := c.loadField(v, i, nil, elemTypes[i], em2)
				return c.genTest(el, f, em2)
			})
		}
		return acc

	case *ast.PCtor:
		return c.genCtorTest(p, v, em)
	}
	panic("genTest: unreachable")
}

func (c *fctx) tupleElemTypes(pat ast.Pattern) []types.Type {
	tup, ok := types.Resolve(c.l.info.PatType(pat)).(*types.TupleT)
	if !ok {
		panic("genTest: tuple pattern with non-tuple type")
	}
	return tup.Elems
}

func (c *fctx) genCtorTest(p *ast.PCtor, v ir.Atom, em *emitter) ir.Atom {
	ci := c.l.info.PatCtor(p)
	data := ci.Data
	inst := c.l.info.PatInst(p)

	if ci.IsNullary() {
		return c.emitPrimBool(ir.PEq, v, &ir.ANullCtor{Ctor: ci, Inst: inst}, em)
	}

	hasNullary := len(data.Ctors) > data.BoxedCtors
	fieldTypes := ci.Instantiate(inst)
	args := p.Args
	if c.l.info.PatSplat(p) {
		args = args[0].(*ast.PTuple).Elems
	}

	var acc ir.Atom
	if hasNullary {
		acc = c.emitPrimBool(ir.PIsBoxed, v, nil, em)
	}
	if data.BoxedCtors > 1 {
		acc = c.andLazy(acc, em, func(em2 *emitter) ir.Atom {
			return c.emitPrimBool(ir.PTagIs, v, &ir.AConst{Kind: ir.ConstInt, Val: int64(ci.Tag)}, em2)
		})
	}
	for i, a := range args {
		if patternTestFree(a) {
			continue // binding loads happen in genBind; skip the dead load
		}
		i, a := i, a
		acc = c.andLazy(acc, em, func(em2 *emitter) ir.Atom {
			f := c.loadField(v, i, ci, fieldTypes[i], em2)
			return c.genTest(a, f, em2)
		})
	}
	return acc
}

// patternTestFree reports whether genTest on the pattern emits no test at
// all (wildcards, variables, unit, and tuples thereof). Field loads feeding
// such subpatterns would be dead code, so callers skip them.
func patternTestFree(p ast.Pattern) bool {
	switch p := p.(type) {
	case *ast.PWild, *ast.PVar, *ast.PUnit:
		return true
	case *ast.PTuple:
		for _, e := range p.Elems {
			if !patternTestFree(e) {
				return false
			}
		}
		return true
	}
	return false
}

// emitPrimBool emits a boolean-producing primitive over one or two atoms.
func (c *fctx) emitPrimBool(op ir.PrimOp, a, b ir.Atom, em *emitter) ir.Atom {
	args := []ir.Atom{a}
	if b != nil {
		args = append(args, b)
	}
	dst := c.newSlot("", types.Bool)
	em.let(dst, &ir.RPrim{Op: op, Args: args})
	return &ir.ASlot{Slot: dst}
}

// loadField emits a guarded or unguarded field load.
func (c *fctx) loadField(obj ir.Atom, index int, fromCtor *types.CtorInfo, t types.Type, em *emitter) ir.Atom {
	dst := c.newSlot("", t)
	em.let(dst, &ir.RField{Obj: obj, Index: index, FromCtor: fromCtor, ResultType: t})
	return &ir.ASlot{Slot: dst}
}

// andLazy combines an accumulated test with a lazily computed one, emitting
// the second only when the first succeeded (so representation-dependent
// loads stay guarded). A nil acc means "always true so far".
func (c *fctx) andLazy(acc ir.Atom, em *emitter, thunk func(*emitter) ir.Atom) ir.Atom {
	if acc == nil {
		return thunk(em)
	}
	thenEm := newEmitter()
	sub := thunk(thenEm)
	if sub == nil {
		sub = &ir.AConst{Kind: ir.ConstBool, Val: 1}
	}
	dst := c.newSlot("", types.Bool)
	em.cond(dst, acc,
		thenEm.finish(&ir.EJoin{A: sub}),
		&ir.EJoin{A: &ir.AConst{Kind: ir.ConstBool, Val: 0}})
	return &ir.ASlot{Slot: dst}
}

// ---------------------------------------------------------------------------
// Match bindings.
// ---------------------------------------------------------------------------

// genBind emits the field loads and slot bindings for a matched pattern and
// extends the current scope.
func (c *fctx) genBind(pat ast.Pattern, v ir.Atom, em *emitter) {
	switch p := pat.(type) {
	case *ast.PWild, *ast.PInt, *ast.PBool, *ast.PUnit:

	case *ast.PVar:
		t := c.l.info.PatType(pat)
		slot := c.newSlot(p.Name, t)
		em.let(slot, &ir.RAtom{A: v})
		c.scope = c.scope.bind(p.Name, bindSlot(slot))

	case *ast.PTuple:
		elemTypes := c.tupleElemTypes(pat)
		for i, el := range p.Elems {
			if !patternBinds(el) {
				continue
			}
			f := c.loadField(v, i, nil, elemTypes[i], em)
			c.genBind(el, f, em)
		}

	case *ast.PCtor:
		ci := c.l.info.PatCtor(p)
		if ci.IsNullary() {
			return
		}
		inst := c.l.info.PatInst(p)
		fieldTypes := ci.Instantiate(inst)
		args := p.Args
		if c.l.info.PatSplat(p) {
			args = args[0].(*ast.PTuple).Elems
		}
		for i, a := range args {
			if !patternBinds(a) {
				continue
			}
			f := c.loadField(v, i, ci, fieldTypes[i], em)
			c.genBind(a, f, em)
		}
	}
}

// patternBinds reports whether a pattern binds any variables (loads for
// non-binding subpatterns are skipped during the bind phase).
func patternBinds(p ast.Pattern) bool {
	switch p := p.(type) {
	case *ast.PVar:
		return true
	case *ast.PTuple:
		for _, e := range p.Elems {
			if patternBinds(e) {
				return true
			}
		}
	case *ast.PCtor:
		for _, a := range p.Args {
			if patternBinds(a) {
				return true
			}
		}
	}
	return false
}

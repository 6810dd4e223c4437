package lower

import (
	"tagfree/internal/ir"
	"tagfree/internal/mlang/ast"
	"tagfree/internal/mlang/types"
)

// lowerExpr lowers an expression, emitting statements into em and returning
// the atom holding the result.
func (c *fctx) lowerExpr(e ast.Expr, em *emitter) ir.Atom {
	switch ex := e.(type) {
	case *ast.IntLit:
		return &ir.AConst{Kind: ir.ConstInt, Val: ex.Val}
	case *ast.BoolLit:
		v := int64(0)
		if ex.Val {
			v = 1
		}
		return &ir.AConst{Kind: ir.ConstBool, Val: v}
	case *ast.UnitLit:
		return unitAtom()
	case *ast.StrLit:
		return &ir.AStr{Index: c.l.internString(ex.Val)}

	case *ast.Var:
		return c.lowerVarValue(ex, em)

	case *ast.Ctor:
		return c.lowerCtor(ex, em)

	case *ast.App:
		return c.lowerApp(ex, em)

	case *ast.Lam:
		return c.liftClosureValue(ex, nil, em)

	case *ast.Let:
		return c.lowerLet(ex, em)

	case *ast.If:
		cond := c.lowerExpr(ex.Cond, em)
		dst := c.newSlot("", c.typeOf(ex))
		thenEm := newEmitter()
		thenA := c.lowerExpr(ex.Then, thenEm)
		elseEm := newEmitter()
		elseA := c.lowerExpr(ex.Else, elseEm)
		em.cond(dst, cond,
			thenEm.finish(&ir.EJoin{A: thenA}),
			elseEm.finish(&ir.EJoin{A: elseA}))
		return &ir.ASlot{Slot: dst}

	case *ast.Match:
		return c.lowerMatch(ex, em)

	case *ast.Tuple:
		elems := make([]ir.Atom, len(ex.Elems))
		elemTypes := make([]types.Type, len(ex.Elems))
		for i, el := range ex.Elems {
			elems[i] = c.lowerExpr(el, em)
			elemTypes[i] = c.typeOf(el)
		}
		dst := c.newSlot("", c.typeOf(ex))
		em.let(dst, &ir.RTuple{Elems: elems, Types: elemTypes, Site: c.newSite()})
		return &ir.ASlot{Slot: dst}

	case *ast.Prim:
		return c.lowerPrim(ex, em)

	case *ast.Seq:
		c.lowerExpr(ex.First, em)
		return c.lowerExpr(ex.Rest, em)

	case *ast.Ann:
		return c.lowerExpr(ex.Expr, em)
	}
	c.errf(e.Pos(), "internal: unhandled expression in lowering")
	return nil
}

// lowerVarValue lowers a variable occurrence in value position.
func (c *fctx) lowerVarValue(v *ast.Var, em *emitter) ir.Atom {
	b, ok := c.scope.lookup(v.Name)
	if !ok {
		c.errf(v.P, "internal: unbound variable %s after type checking", v.Name)
	}
	switch b := b.(type) {
	case *slotBinding:
		return &b.atom
	case *captureBinding:
		dst := c.newSlot(v.Name, b.typ)
		em.let(dst, &ir.RField{
			Obj:         &ir.ASlot{Slot: c.fn.Slots[0]},
			Index:       b.index,
			FromCapture: true,
			ResultType:  b.typ,
		})
		return &ir.ASlot{Slot: dst}
	case *globalBinding:
		return &ir.AGlobal{Global: b.global}
	case *funcBinding:
		inst := c.occInst(b, v)
		return c.buildCurried(b.fn, inst, c.typeOf(v), nil, em)
	case *builtinBinding:
		return c.makeBuiltinValue(b, em)
	}
	panic("lowerVarValue: unreachable")
}

// occInst computes the instantiation of the ultimate callee's type
// variables at a variable occurrence, composing through alias bindings.
//
// Occurrences inside a recursive binding group were checked against the
// group's monomorphic recursion environment, so the checker recorded no
// instantiation for them; the callee's type variables are then the
// caller's own (one shared generalization group) and the instantiation is
// the identity. Without it, the frame GC routine of a recursive
// polymorphic call would pass no type arguments and deeper frames would
// trace their polymorphic slots as constants — a collector soundness bug.
func (c *fctx) occInst(fb *funcBinding, occ *ast.Var) []types.Type {
	occInst := c.l.info.Inst(occ)
	if occInst == nil && fb.inst == nil && fb.scheme != nil && fb.scheme.IsPoly() {
		vars := fb.scheme.Vars()
		out := make([]types.Type, len(vars))
		for i, v := range vars {
			out[i] = v
		}
		return out
	}
	if fb.inst == nil {
		return occInst
	}
	sch := c.l.info.VarScheme(occ)
	out := make([]types.Type, len(fb.inst))
	for i, t := range fb.inst {
		if sch != nil && sch.Group != nil {
			out[i] = types.SubstGroup(t, sch.Group, occInst)
		} else {
			out[i] = t
		}
	}
	return out
}

// lowerCtor lowers a constructor application.
func (c *fctx) lowerCtor(ex *ast.Ctor, em *emitter) ir.Atom {
	ci := c.l.info.ExprCtor(ex)
	inst := c.l.info.Inst(ex)
	if ci.IsNullary() {
		return &ir.ANullCtor{Ctor: ci, Inst: inst}
	}
	args := ex.Args
	if c.l.info.CtorSplat(ex) {
		args = args[0].(*ast.Tuple).Elems
	}
	atoms := make([]ir.Atom, len(args))
	for i, a := range args {
		atoms[i] = c.lowerExpr(a, em)
	}
	dst := c.newSlot("", c.typeOf(ex))
	em.let(dst, &ir.RCtor{Ctor: ci, Inst: inst, Args: atoms, Site: c.newSite()})
	return &ir.ASlot{Slot: dst}
}

// lowerPrim lowers primitive operator applications.
func (c *fctx) lowerPrim(ex *ast.Prim, em *emitter) ir.Atom {
	switch ex.Op {
	case ast.OpRef:
		init := c.lowerExpr(ex.Args[0], em)
		dst := c.newSlot("", c.typeOf(ex))
		em.let(dst, &ir.RRef{Init: init, Site: c.newSite(), Elem: c.typeOf(ex.Args[0])})
		return &ir.ASlot{Slot: dst}
	case ast.OpDeref:
		ref := c.lowerExpr(ex.Args[0], em)
		dst := c.newSlot("", c.typeOf(ex))
		em.let(dst, &ir.RDeref{Ref: ref})
		return &ir.ASlot{Slot: dst}
	case ast.OpAssign:
		ref := c.lowerExpr(ex.Args[0], em)
		val := c.lowerExpr(ex.Args[1], em)
		dst := c.newSlot("", types.Unit)
		em.let(dst, &ir.RAssign{Ref: ref, Val: val})
		return &ir.ASlot{Slot: dst}
	default:
		op := ir.PrimFromAST(ex.Op)
		atoms := make([]ir.Atom, len(ex.Args))
		for i, a := range ex.Args {
			atoms[i] = c.lowerExpr(a, em)
		}
		dst := c.newSlot("", c.typeOf(ex))
		em.let(dst, &ir.RPrim{Op: op, Args: atoms})
		return &ir.ASlot{Slot: dst}
	}
}

// ---------------------------------------------------------------------------
// Applications.
// ---------------------------------------------------------------------------

// lowerApp lowers an application spine.
func (c *fctx) lowerApp(app *ast.App, em *emitter) ir.Atom {
	// Collect the spine: innermost function and argument list, left to
	// right. spineNodes[i] is the App node after i+1 arguments.
	depth := 1
	for a, ok := app.Fn.(*ast.App); ok; a, ok = a.Fn.(*ast.App) {
		depth++
	}
	spineNodes := make([]*ast.App, depth)
	args := make([]ast.Expr, depth)
	head := ast.Expr(app)
	for i := depth - 1; i >= 0; i-- {
		a := head.(*ast.App)
		spineNodes[i], args[i] = a, a.Arg
		head = a.Fn
	}

	if v, ok := head.(*ast.Var); ok {
		if b, found := c.scope.lookup(v.Name); found {
			switch b := b.(type) {
			case *funcBinding:
				return c.lowerKnownCall(b, v, args, spineNodes, em)
			case *builtinBinding:
				// Builtins are unary; the type checker guarantees exactly
				// one argument can apply.
				arg := c.lowerExpr(args[0], em)
				dst := c.newSlot("", c.typeOf(spineNodes[0]))
				em.let(dst, &ir.RBuiltin{Name: b.name, Args: []ir.Atom{arg}})
				res := ir.Atom(&ir.ASlot{Slot: dst})
				return c.closApplyChain(res, spineNodes, 1, args, em)
			}
		}
	}

	// General case: evaluate the head, then apply arguments one at a time.
	fn := c.lowerExpr(head, em)
	return c.closApplyChain(fn, spineNodes, 0, args, em)
}

// lowerKnownCall lowers a call whose head is a known function.
func (c *fctx) lowerKnownCall(fb *funcBinding, v *ast.Var, args []ast.Expr, spineNodes []*ast.App, em *emitter) ir.Atom {
	arity := fb.fn.NParams
	inst := c.occInst(fb, v)
	if len(args) >= arity {
		atoms := make([]ir.Atom, arity)
		for i := 0; i < arity; i++ {
			atoms[i] = c.lowerExpr(args[i], em)
		}
		dst := c.newSlot("", c.typeOf(spineNodes[arity-1]))
		em.let(dst, &ir.RCall{
			Callee: fb.fn,
			Args:   atoms,
			Inst:   inst,
			Site:   c.newSite(),
			CanGC:  true,
		})
		res := ir.Atom(&ir.ASlot{Slot: dst})
		return c.closApplyChain(res, spineNodes, arity, args, em)
	}

	// Partial application: evaluate the given arguments and build a curried
	// closure expecting the rest.
	atoms := make([]ir.Atom, len(args))
	for i, a := range args {
		atoms[i] = c.lowerExpr(a, em)
	}
	return c.buildCurried(fb.fn, inst, c.typeOf(spineNodes[len(args)-1]), atoms, em)
}

// closApplyChain applies the remaining spine arguments (from index k) to a
// closure value one at a time.
func (c *fctx) closApplyChain(fn ir.Atom, spineNodes []*ast.App, k int, args []ast.Expr, em *emitter) ir.Atom {
	cur := fn
	for i := k; i < len(args); i++ {
		arg := c.lowerExpr(args[i], em)
		var siteType types.Type
		if i == 0 {
			siteType = c.typeOf(spineNodes[0].Fn)
		} else {
			siteType = c.typeOf(spineNodes[i-1])
		}
		dst := c.newSlot("", c.typeOf(spineNodes[i]))
		em.let(dst, &ir.RCallClos{
			Clos:     cur,
			Arg:      arg,
			Site:     c.newSite(),
			CanGC:    true,
			RetType:  c.typeOf(spineNodes[i]),
			SiteType: siteType,
		})
		cur = &ir.ASlot{Slot: dst}
	}
	return cur
}

// ---------------------------------------------------------------------------
// Let bindings.
// ---------------------------------------------------------------------------

func (c *fctx) lowerLet(ex *ast.Let, em *emitter) ir.Atom {
	outer := c.scope
	if ex.Rec {
		c.lowerLocalRec(ex.Binds, em)
	} else {
		for i := range ex.Binds {
			b := &ex.Binds[i]
			scheme := c.l.info.Scheme(b.Expr)
			switch rhs := b.Expr.(type) {
			case *ast.Lam:
				atom := c.liftClosureValue(rhs, scheme, em)
				slot := c.newSlot(b.Name, scheme.Body)
				em.let(slot, &ir.RAtom{A: atom})
				if b.Name != "_" {
					c.scope = c.scope.bind(b.Name, bindSlot(slot))
				}
				continue
			case *ast.Var:
				// Local alias of a known function stays directly callable.
				if tb, ok := c.scope.lookup(rhs.Name); ok {
					if fb, ok := tb.(*funcBinding); ok {
						inst := c.occInst(fb, rhs)
						if b.Name != "_" {
							c.scope = c.scope.bind(b.Name, &funcBinding{fn: fb.fn, scheme: scheme, inst: inst})
						}
						continue
					}
				}
			}
			atom := c.lowerExpr(b.Expr, em)
			slot := c.newSlot(b.Name, scheme.Body)
			em.let(slot, &ir.RAtom{A: atom})
			if b.Name != "_" {
				c.scope = c.scope.bind(b.Name, bindSlot(slot))
			}
		}
	}
	res := c.lowerExpr(ex.Body, em)
	c.scope = outer
	// Rebind nothing: result atom may reference inner slots, which remain
	// valid (scoping is purely a naming construct; slots live in the frame).
	c.scope = outer
	return res
}

// lowerLocalRec lowers a local `let rec` group of closures with
// self-capture and forward-reference patching.
func (c *fctx) lowerLocalRec(binds []ast.Bind, em *emitter) {
	// Every member must be a lambda.
	slots := make([]*ir.Slot, len(binds))
	for i := range binds {
		b := &binds[i]
		if _, ok := b.Expr.(*ast.Lam); !ok {
			c.errf(b.P, "let rec supports only function bindings")
		}
		scheme := c.l.info.Scheme(b.Expr)
		slots[i] = c.newSlot(b.Name, scheme.Body)
	}
	// Bind all names before lowering any body so captures resolve to the
	// group's slots.
	for i := range binds {
		if binds[i].Name != "_" {
			c.scope = c.scope.bind(binds[i].Name, bindSlot(slots[i]))
		}
	}
	type patch struct {
		closSlot *ir.Slot
		index    int
		srcSlot  *ir.Slot
		target   *ir.Func
	}
	var patches []patch
	defined := map[*ir.Slot]bool{}
	for i := range binds {
		b := &binds[i]
		scheme := c.l.info.Scheme(b.Expr)
		var memberPatches []*patch
		atom, target := c.liftClosure(b.Expr.(*ast.Lam), scheme, em, func(capSlot *ir.Slot, capIdx int) (ir.Atom, bool) {
			// A capture of this group's own slots needs special handling.
			if capSlot == slots[i] {
				return nil, true // self capture: creation site stores own address
			}
			for j, s := range slots {
				if capSlot == s && !defined[s] {
					p := &patch{closSlot: slots[i], index: capIdx, srcSlot: slots[j]}
					memberPatches = append(memberPatches, p)
					return &ir.AConst{Kind: ir.ConstInt, Val: 0}, false // placeholder null
				}
			}
			return nil, false // ordinary capture
		})
		for _, p := range memberPatches {
			p.target = target
			patches = append(patches, *p)
		}
		em.let(slots[i], &ir.RAtom{A: atom})
		defined[slots[i]] = true
	}
	for _, p := range patches {
		u := c.newSlot("", types.Unit)
		em.let(u, &ir.RPatchCapture{
			Clos:   &ir.ASlot{Slot: p.closSlot},
			Index:  p.index,
			Val:    &ir.ASlot{Slot: p.srcSlot},
			Target: p.target,
		})
	}
}

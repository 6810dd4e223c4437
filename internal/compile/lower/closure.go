package lower

import (
	"fmt"

	"tagfree/internal/ir"
	"tagfree/internal/mlang/ast"
	"tagfree/internal/mlang/token"
	"tagfree/internal/mlang/types"
)

// capHook lets the caller of liftClosure intercept captures of slots, for
// recursive closure groups. It returns a replacement creation atom (nil to
// keep the default slot read) and whether this capture is the closure's own
// slot (self capture).
type capHook func(capSlot *ir.Slot, capIdx int) (ir.Atom, bool)

// liftClosureValue lifts an anonymous or let-bound lambda into a closure.
func (c *fctx) liftClosureValue(lam *ast.Lam, scheme *types.Scheme, em *emitter) ir.Atom {
	atom, _ := c.liftClosure(lam, scheme, em, nil)
	return atom
}

// liftClosure lifts one lambda (unary: only the first parameter; a curried
// body lifts its own inner lambdas) into a new IR function and emits the
// closure allocation into the parent emitter.
func (c *fctx) liftClosure(lam *ast.Lam, scheme *types.Scheme, em *emitter, hook capHook) (ir.Atom, *ir.Func) {
	lamType := c.typeOf(lam)
	arrow, ok := types.Resolve(lamType).(*types.Arrow)
	if !ok {
		c.errf(lam.P, "internal: lambda without arrow type")
	}

	fn := c.l.newFunc(fmt.Sprintf("%s.lam%d", c.fn.Name, c.l.nextID))
	fn.Parent = c.fn
	fn.HasEnv = true
	fn.RetType = arrow.Cod
	if scheme != nil && scheme.Group != nil {
		fn.TypeEnv = append(fn.TypeEnv, scheme.Group.Vars...)
		fn.OwnVars = len(fn.TypeEnv)
	}

	child := &fctx{l: c.l, fn: fn}
	envSlot := child.newSlot("$env", lamType)
	envSlot.IsEnv = true
	paramSlot := child.newSlot(lam.Param, arrow.Dom)
	fn.NParams = 2

	// Resolve free variables: slots and captures of the parent become
	// captures of the closure; globals, functions and builtins pass
	// through by name.
	childScope := (*scope)(nil)
	var capAtoms []ir.Atom
	selfCapture := -1
	for _, name := range freeVars(lam) {
		if name == lam.Param {
			continue
		}
		b, found := c.scope.lookup(name)
		if !found {
			c.errf(lam.P, "internal: unbound free variable %s", name)
		}
		switch b := b.(type) {
		case *slotBinding:
			idx := len(fn.Captures)
			fn.Captures = append(fn.Captures, ir.CaptureInfo{Name: name, Type: b.atom.Slot.Type})
			atom := ir.Atom(&b.atom)
			if hook != nil {
				if repl, isSelf := hook(b.atom.Slot, idx); isSelf {
					selfCapture = idx
					atom = &ir.AConst{Kind: ir.ConstInt, Val: 0}
				} else if repl != nil {
					atom = repl
				}
			}
			capAtoms = append(capAtoms, atom)
			childScope = childScope.bind(name, &captureBinding{index: idx, typ: b.atom.Slot.Type})
		case *captureBinding:
			idx := len(fn.Captures)
			fn.Captures = append(fn.Captures, ir.CaptureInfo{Name: name, Type: b.typ})
			// Re-read the parent's capture in the parent frame.
			tmp := c.newSlot(name, b.typ)
			em.let(tmp, &ir.RField{
				Obj:         &ir.ASlot{Slot: c.fn.Slots[0]},
				Index:       b.index,
				FromCapture: true,
				ResultType:  b.typ,
			})
			capAtoms = append(capAtoms, &ir.ASlot{Slot: tmp})
			childScope = childScope.bind(name, &captureBinding{index: idx, typ: b.typ})
		default:
			childScope = childScope.bind(name, b)
		}
	}
	if lam.Param != "_" {
		childScope = childScope.bind(lam.Param, bindSlot(paramSlot))
	}
	child.scope = childScope

	bodyEm := newEmitter()
	res := child.lowerExpr(lam.Body, bodyEm)
	fn.Body = bodyEm.finish(&ir.ERet{A: res})

	dst := c.newSlot("", lamType)
	em.let(dst, &ir.RClosure{
		Target:      fn,
		Captures:    capAtoms,
		Site:        c.newSite(),
		SelfCapture: selfCapture,
	})
	return &ir.ASlot{Slot: dst}, fn
}

// ---------------------------------------------------------------------------
// Curried wrappers: known functions as values and partial applications.
// ---------------------------------------------------------------------------

// buildCurried returns a closure value that accepts the remaining
// parameters of target one at a time, then direct-calls it. preArgs are
// already-evaluated leading arguments (captured by the wrapper chain);
// valType is the closure's type at this occurrence (the instantiated arrow
// for the remaining parameters); inst instantiates target's type
// environment at this occurrence.
func (c *fctx) buildCurried(target *ir.Func, inst []types.Type, valType types.Type, preArgs []ir.Atom, em *emitter) ir.Atom {
	remaining := target.NParams - len(preArgs)
	if remaining <= 0 {
		c.errf(token.Pos{}, "internal: buildCurried with nothing remaining")
	}

	// Decompose the value type into the remaining parameter types.
	paramTypes := make([]types.Type, remaining)
	stepTypes := make([]types.Type, remaining) // arrow type of wrapper k's closure
	cur := valType
	for k := 0; k < remaining; k++ {
		stepTypes[k] = cur
		arrow, ok := types.Resolve(cur).(*types.Arrow)
		if !ok {
			c.errf(token.Pos{}, "internal: curried value type is not an arrow")
		}
		paramTypes[k] = arrow.Dom
		cur = arrow.Cod
	}
	finalRet := cur

	// Capture types accumulated by the wrapper chain: preArgs' types first,
	// then one parameter per level.
	capTypes := make([]types.Type, 0, len(preArgs)+remaining)
	for _, a := range preArgs {
		capTypes = append(capTypes, a.Type())
	}

	wrappers := make([]*ir.Func, remaining)
	for k := 0; k < remaining; k++ {
		w := c.l.newFunc(fmt.Sprintf("%s.curry%d", target.Name, k))
		w.HasEnv = true
		w.NParams = 2
		if k < remaining-1 {
			w.RetType = stepTypes[k+1]
		} else {
			w.RetType = finalRet
		}
		if k == 0 {
			w.Parent = c.fn
		} else {
			w.Parent = wrappers[k-1]
		}
		wrappers[k] = w
	}

	for k := 0; k < remaining; k++ {
		w := wrappers[k]
		wc := &fctx{l: c.l, fn: w}
		envSlot := wc.newSlot("$env", stepTypes[k])
		envSlot.IsEnv = true
		paramSlot := wc.newSlot(fmt.Sprintf("a%d", len(capTypes)), paramTypes[k])

		for i, t := range capTypes {
			w.Captures = append(w.Captures, ir.CaptureInfo{
				Name: fmt.Sprintf("a%d", i),
				Type: t,
			})
		}

		bodyEm := newEmitter()
		// Read every capture.
		capReads := make([]ir.Atom, len(capTypes))
		for i, t := range capTypes {
			s := wc.newSlot("", t)
			bodyEm.let(s, &ir.RField{
				Obj:         &ir.ASlot{Slot: envSlot},
				Index:       i,
				FromCapture: true,
				ResultType:  t,
			})
			capReads[i] = &ir.ASlot{Slot: s}
		}
		allArgs := append(append([]ir.Atom{}, capReads...), &ir.ASlot{Slot: paramSlot})

		if k < remaining-1 {
			dst := wc.newSlot("", stepTypes[k+1])
			bodyEm.let(dst, &ir.RClosure{
				Target:      wrappers[k+1],
				Captures:    allArgs,
				Site:        wc.newSite(),
				SelfCapture: -1,
			})
			w.Body = bodyEm.finish(&ir.ERet{A: &ir.ASlot{Slot: dst}})
		} else {
			dst := wc.newSlot("", finalRet)
			bodyEm.let(dst, &ir.RCall{
				Callee: target,
				Args:   allArgs,
				Inst:   inst,
				Site:   wc.newSite(),
				CanGC:  true,
			})
			w.Body = bodyEm.finish(&ir.ERet{A: &ir.ASlot{Slot: dst}})
		}
		capTypes = append(capTypes, paramTypes[k])
	}

	dst := c.newSlot("", valType)
	em.let(dst, &ir.RClosure{
		Target:      wrappers[0],
		Captures:    preArgs,
		Site:        c.newSite(),
		SelfCapture: -1,
	})
	return &ir.ASlot{Slot: dst}
}

// makeBuiltinValue wraps a builtin in a closure so it can be passed as a
// value.
func (c *fctx) makeBuiltinValue(b *builtinBinding, em *emitter) ir.Atom {
	arrow := types.Resolve(b.typ).(*types.Arrow)
	w := c.l.newFunc("builtin." + b.name)
	w.Parent = c.fn
	w.HasEnv = true
	w.NParams = 2
	w.RetType = arrow.Cod

	wc := &fctx{l: c.l, fn: w}
	envSlot := wc.newSlot("$env", b.typ)
	envSlot.IsEnv = true
	paramSlot := wc.newSlot("x", arrow.Dom)
	bodyEm := newEmitter()
	dst := wc.newSlot("", arrow.Cod)
	bodyEm.let(dst, &ir.RBuiltin{Name: b.name, Args: []ir.Atom{&ir.ASlot{Slot: paramSlot}}})
	w.Body = bodyEm.finish(&ir.ERet{A: &ir.ASlot{Slot: dst}})

	out := c.newSlot("", b.typ)
	em.let(out, &ir.RClosure{Target: w, Site: c.newSite(), SelfCapture: -1})
	return &ir.ASlot{Slot: out}
}

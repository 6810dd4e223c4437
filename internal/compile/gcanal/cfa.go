package gcanal

import "tagfree/internal/ir"

// Higher-order refinement of the GC-possible analysis.
//
// The paper's fixpoint (§5.1) is first-order: closure calls are assumed to
// reach an allocator because the callee is unknown. The paper points at
// abstract interpretation for the higher-order case ("a similar analysis
// on programs with higher order functions is more difficult... via
// abstract interpretation"); this is that analysis, as a monovariant
// closure-flow analysis (0-CFA):
//
//   - every slot, capture, global, and function return is an abstract set
//     of functions that may flow there;
//   - closures stored into heap structures join one "escaped" set, and
//     loads from heap structures yield it (field-insensitive);
//   - closure-call sites then know their possible targets, and the
//     GC-possible fixpoint treats them like direct calls to each target.
//
// A closure-call site whose every possible target cannot allocate loses
// its gc_word, exactly like the first-order elision.
type cfa struct {
	prog *ir.Program
	// slotSets[f.ID][slot] is the set of functions that may inhabit the slot.
	slotSets []map[int]fnSet
	// capSets[f.ID][capIdx] is the set for a closure capture field.
	capSets []map[int]fnSet
	// retSets[f.ID] is the set returned by f.
	retSets []fnSet
	// globalSets[g.Idx] is the set for a global.
	globalSets []fnSet
	// escaped covers everything stored into heap objects.
	escaped fnSet
	changed bool
}

// fnSet is a set of function IDs.
type fnSet map[int]bool

func (s fnSet) addAll(o fnSet) fnSet {
	for k := range o {
		if !s[k] {
			s[k] = true
		}
	}
	return s
}

// AnalyzeCFA runs the first-order analysis plus the 0-CFA higher-order
// refinement, updating RCall.CanGC and RCallClos CanGC flags in place.
func AnalyzeCFA(p *ir.Program) *Result {
	c := &cfa{
		prog:       p,
		slotSets:   make([]map[int]fnSet, len(p.Funcs)),
		capSets:    make([]map[int]fnSet, len(p.Funcs)),
		retSets:    make([]fnSet, len(p.Funcs)),
		globalSets: make([]fnSet, len(p.Globals)),
		escaped:    fnSet{},
	}
	for i := range p.Funcs {
		c.slotSets[i] = map[int]fnSet{}
		c.capSets[i] = map[int]fnSet{}
		c.retSets[i] = fnSet{}
	}
	for i := range p.Globals {
		c.globalSets[i] = fnSet{}
	}

	// Flow fixpoint.
	for {
		c.changed = false
		for _, f := range p.Funcs {
			c.flowFunc(f)
		}
		if !c.changed {
			break
		}
	}

	// GC-possible fixpoint with resolved closure targets.
	res := &Result{CanGCFunc: make(map[*ir.Func]bool, len(p.Funcs))}
	for _, f := range p.Funcs {
		ir.WalkRhss(f, func(r ir.Rhs) bool {
			switch r.(type) {
			case *ir.RRef, *ir.RTuple, *ir.RCtor, *ir.RClosure:
				res.CanGCFunc[f] = true
				return false
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, f := range p.Funcs {
			if res.CanGCFunc[f] {
				continue
			}
			gc := false
			ir.WalkRhss(f, func(r ir.Rhs) bool {
				switch r := r.(type) {
				case *ir.RCall:
					gc = res.CanGCFunc[r.Callee]
				case *ir.RCallClos:
					gc = c.calleesCanGC(f, r, res)
				}
				return !gc
			})
			if gc {
				res.CanGCFunc[f] = true
				changed = true
			}
		}
	}

	// Refine sites and collect statistics.
	for _, f := range p.Funcs {
		ir.WalkRhss(f, func(r ir.Rhs) bool {
			switch r := r.(type) {
			case *ir.RCall:
				res.Stats.Sites++
				res.Stats.DirectCallSites++
				r.CanGC = res.CanGCFunc[r.Callee]
				if !r.CanGC {
					res.Stats.ElidedSites++
				}
			case *ir.RCallClos:
				res.Stats.Sites++
				res.Stats.ClosCallSites++
				if !c.calleesCanGC(f, r, res) {
					r.CanGC = false
					res.Stats.ElidedClosSites++
				}
			case *ir.RRef, *ir.RTuple, *ir.RCtor, *ir.RClosure:
				res.Stats.Sites++
			}
			return true
		})
	}
	return res
}

// calleesCanGC reports whether any resolved target of a closure call can
// allocate. An empty target set is treated conservatively (the analysis
// may be looking at dead code or a flow it cannot see).
func (c *cfa) calleesCanGC(f *ir.Func, r *ir.RCallClos, res *Result) bool {
	targets := c.atomSet(f, r.Clos)
	if len(targets) == 0 {
		return true
	}
	for fid := range targets {
		if res.CanGCFunc[c.prog.Funcs[fid]] {
			return true
		}
	}
	return false
}

// atomSet returns the function set an atom may hold.
func (c *cfa) atomSet(f *ir.Func, a ir.Atom) fnSet {
	switch a := a.(type) {
	case *ir.ASlot:
		if s, ok := c.slotSets[f.ID][a.Slot.Idx]; ok {
			return s
		}
		return nil
	case *ir.AGlobal:
		return c.globalSets[a.Global.Idx]
	}
	return nil
}

func (c *cfa) join(dst fnSet, src fnSet) fnSet {
	if dst == nil {
		dst = fnSet{}
	}
	before := len(dst)
	dst.addAll(src)
	if len(dst) != before {
		c.changed = true
	}
	return dst
}

func (c *cfa) joinSlot(f *ir.Func, slot int, src fnSet) {
	if len(src) == 0 {
		return
	}
	c.slotSets[f.ID][slot] = c.join(c.slotSets[f.ID][slot], src)
}

func (c *cfa) single(fid int) fnSet { return fnSet{fid: true} }

// flowFunc propagates one pass over a function body.
func (c *cfa) flowFunc(f *ir.Func) {
	ir.WalkExprs(f.Body, func(e ir.Expr) {
		switch e := e.(type) {
		case *ir.ERet:
			c.retSets[f.ID] = c.join(c.retSets[f.ID], c.atomSet(f, e.A))
		case *ir.ECond:
			// Join values flow through EJoin nodes below; nothing here.
		case *ir.EJoin:
			// Handled by the enclosing conditional pass below.
		case *ir.ELet:
			c.flowRhs(f, e.Dst, e.Rhs)
		}
	})
	// EJoin → ECond.Dst flows: walk with join-target context.
	c.flowJoins(f.Body, f, nil)
}

// flowJoins propagates EJoin atoms into their conditionals' destinations.
func (c *cfa) flowJoins(e ir.Expr, f *ir.Func, dst *ir.Slot) {
	switch e := e.(type) {
	case *ir.EJoin:
		if dst != nil {
			c.joinSlot(f, dst.Idx, c.atomSet(f, e.A))
		}
	case *ir.ELet:
		c.flowJoins(e.Cont, f, dst)
	case *ir.ECond:
		inner := dst
		if e.Dst != nil {
			inner = e.Dst
		}
		c.flowJoins(e.Then, f, inner)
		c.flowJoins(e.Else, f, inner)
		if e.Cont != nil {
			c.flowJoins(e.Cont, f, dst)
		}
	}
}

func (c *cfa) flowRhs(f *ir.Func, dst *ir.Slot, r ir.Rhs) {
	switch r := r.(type) {
	case *ir.RAtom:
		c.joinSlot(f, dst.Idx, c.atomSet(f, r.A))

	case *ir.RClosure:
		c.joinSlot(f, dst.Idx, c.single(r.Target.ID))
		for i, a := range r.Captures {
			if s := c.atomSet(f, a); len(s) > 0 {
				c.capSets[r.Target.ID][i] = c.join(c.capSets[r.Target.ID][i], s)
			}
		}
		if r.SelfCapture >= 0 {
			c.capSets[r.Target.ID][r.SelfCapture] =
				c.join(c.capSets[r.Target.ID][r.SelfCapture], c.single(r.Target.ID))
		}

	case *ir.RCall:
		for i, a := range r.Args {
			if i < r.Callee.NParams {
				c.joinSlot(r.Callee, i, c.atomSet(f, a))
			}
		}
		c.joinSlot(f, dst.Idx, c.retSets[r.Callee.ID])

	case *ir.RCallClos:
		targets := c.atomSet(f, r.Clos)
		argSet := c.atomSet(f, r.Arg)
		for fid := range targets {
			g := c.prog.Funcs[fid]
			c.joinSlot(g, 0, targets)
			c.joinSlot(g, 1, argSet)
			c.joinSlot(f, dst.Idx, c.retSets[fid])
		}

	case *ir.RField:
		if r.FromCapture {
			c.joinSlot(f, dst.Idx, c.capSets[f.ID][r.Index])
		} else {
			c.joinSlot(f, dst.Idx, c.escaped)
		}

	case *ir.RDeref:
		c.joinSlot(f, dst.Idx, c.escaped)

	case *ir.RTuple:
		for _, a := range r.Elems {
			c.escaped = c.join(c.escaped, c.atomSet(f, a))
		}
	case *ir.RCtor:
		for _, a := range r.Args {
			c.escaped = c.join(c.escaped, c.atomSet(f, a))
		}
	case *ir.RRef:
		c.escaped = c.join(c.escaped, c.atomSet(f, r.Init))
	case *ir.RAssign:
		c.escaped = c.join(c.escaped, c.atomSet(f, r.Val))
	case *ir.RPatchCapture:
		c.capSets[r.Target.ID][r.Index] =
			c.join(c.capSets[r.Target.ID][r.Index], c.atomSet(f, r.Val))

	case *ir.RSetGlobal:
		c.globalSets[r.Global.Idx] = c.join(c.globalSets[r.Global.Idx], c.atomSet(f, r.Val))
	}
}

// Package liveness computes, for every call and allocation site, the set of
// frame slots that are live — the paper's §5.2 optimization. A slot that is
// dead at a site is omitted from the site's frame map, so the collector
// neither traces it (retaining garbage) nor risks interpreting a stale
// word as a pointer.
//
// The analysis is a backward pass over the ANF tree. Because slots are
// assigned once and every use is dominated by its definition, a slot live
// at a site is necessarily initialized there: the frame maps need no
// separate definedness tracking. (The contrast is Appel-style per-procedure
// descriptors, which must assume every variable exists and is initialized —
// forcing frame zero-fill at entry; the VM models that cost in Appel mode.)
//
// Allocation sites keep their operand slots live: the abstract machine
// re-reads operands after a potential collection, so those slots must be in
// the site's map for their pointers to be updated by a moving collector.
// Call sites do not: arguments are copied into the callee's frame (which is
// traced) before the callee can allocate, matching the paper's append
// example where "no local variable or parameter is needed anymore".
package liveness

import (
	"math/bits"

	"tagfree/internal/ir"
)

// slotSet is a set of a function's slots: bit Idx of word Idx/64. Every set
// of one analysis has the same length, (len(f.Slots)+63)/64 words, so a set
// costs one small allocation where it is created (the leaves of the body
// tree) and nothing where it is updated.
type slotSet []uint64

func (s slotSet) clone() slotSet { return append(slotSet(nil), s...) }

func (s slotSet) add(idx int)    { s[idx>>6] |= 1 << (idx & 63) }
func (s slotSet) remove(idx int) { s[idx>>6] &^= 1 << (idx & 63) }

func (s slotSet) addAtom(a ir.Atom) {
	if sl, ok := a.(*ir.ASlot); ok {
		s.add(sl.Slot.Idx)
	}
}

// union adds o's members to s.
func (s slotSet) union(o slotSet) {
	for i, w := range o {
		s[i] |= w
	}
}

// analysis is the state of one function's pass.
type analysis struct {
	f *ir.Func
	// liveAt[site] is the frame map of a site, left nil for a call that
	// cannot collect.
	liveAt [][]*ir.Slot
}

// newSet is the live set at an exit of the body: empty — except that a
// closure-called function whose type arguments sit in its closure's rep words
// keeps slot 0, the closure being executed, live to the end. The collector
// reads the frame's instantiation through that slot at every collection the
// frame is on the stack for, whether or not the body uses the closure again;
// left out of a map, the slot would go stale and the rep words behind it be
// overwritten.
func (an *analysis) newSet() slotSet {
	s := make(slotSet, (len(an.f.Slots)+63)/64)
	if an.f.TypeSource == ir.TypeSourceEnv && an.f.NumRepWords > 0 {
		s.add(0)
	}
	return s
}

// slots lists a set's members. Walking the words low to high yields them in
// ascending Idx — the order frame maps are emitted in — with no sort.
func (an *analysis) slots(s slotSet) []*ir.Slot {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	out := make([]*ir.Slot, 0, n)
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, an.f.Slots[i<<6+bits.TrailingZeros64(w)])
		}
	}
	return out
}

// joinCtx carries the enclosing conditional's join target for EJoin nodes
// and inherit-join conditionals.
type joinCtx struct {
	dst  *ir.Slot
	live slotSet // live set at the join continuation
}

// Analyze returns, for each call/allocation site id of f, the slots live
// across that site, sorted by slot index.
func Analyze(f *ir.Func) [][]*ir.Slot {
	an := &analysis{f: f, liveAt: make([][]*ir.Slot, f.NumCallSites)}
	an.expr(f.Body, nil)
	return an.liveAt
}

// expr returns the live set at the entry of e. The caller owns the result
// and may update it in place.
func (an *analysis) expr(e ir.Expr, jc *joinCtx) slotSet {
	switch e := e.(type) {
	case *ir.ERet:
		s := an.newSet()
		s.addAtom(e.A)
		return s

	case *ir.EJoin:
		if jc == nil {
			// A join with no context is a lowering bug; treat as return.
			s := an.newSet()
			s.addAtom(e.A)
			return s
		}
		s := jc.live.clone()
		if jc.dst != nil {
			s.remove(jc.dst.Idx)
		}
		s.addAtom(e.A)
		return s

	case *ir.ELet:
		live := an.expr(e.Cont, jc)
		live.remove(e.Dst.Idx)

		// A call site's map is the set live after it: arguments are copied
		// into the callee's frame before it can allocate. An allocation
		// site's map also holds the operands, which are re-read after a
		// collection — so the operands join the set before the site is
		// recorded instead of after.
		switch r := e.Rhs.(type) {
		case *ir.RCall:
			if r.CanGC {
				an.liveAt[r.Site] = an.slots(live)
			}
		case *ir.RCallClos:
			if r.CanGC {
				an.liveAt[r.Site] = an.slots(live)
			}
		}
		ir.WalkAtoms(e.Rhs, live.addAtom)
		switch r := e.Rhs.(type) {
		case *ir.RRef:
			an.liveAt[r.Site] = an.slots(live)
		case *ir.RTuple:
			an.liveAt[r.Site] = an.slots(live)
		case *ir.RCtor:
			an.liveAt[r.Site] = an.slots(live)
		case *ir.RClosure:
			an.liveAt[r.Site] = an.slots(live)
		}
		return live

	case *ir.ECond:
		inner := jc
		if e.Dst != nil || e.Cont != nil {
			inner = &joinCtx{dst: e.Dst, live: an.expr(e.Cont, jc)}
		}
		live := an.expr(e.Then, inner)
		live.union(an.expr(e.Else, inner))
		live.addAtom(e.Cond)
		return live
	}
	return an.newSet() // EMatchFail
}

package heap

import "tagfree/internal/code"

// Claim is a collection's heap as the tracer that claims objects in it holds
// it: the word array, and on a plain copying collection the forwarding
// table and its epoch, the from-space base and the to-space limit beside the
// heap whose bump it advances. The tracer takes it once per collection
// (TakeClaim), so claiming an object — read its forwarding entry, copy it word
// by word at the bump, forward it — is one call of straight-line loads and
// stores, not a chain of heap calls that re-decide the discipline and the
// representation for every object.
//
// inline is false wherever the heap has more to decide — mark/sweep, a minor
// collection, a SetDebugAccess heap, the tagged representation — and Visit is
// then VisitObject. A nursery object (below young) reached by a copying major
// goes through VisitObject too: its evacuation is the nursery's. Field and
// SetField address the word array for the tag-free representation, the only
// one whose collections run tracers.
type Claim struct {
	h                     *Heap
	mem                   []code.Word
	fwd                   []uint64
	epoch                 uint64
	fromOff, young, limit int
	// cold says a copy owes more than its words (owe).
	inline, cold bool
}

// TakeClaim fills cl for the collection in progress.
func (h *Heap) TakeClaim(cl *Claim) {
	*cl = Claim{h: h, mem: h.mem, fwd: h.forward, epoch: h.fwdEpoch, fromOff: h.fromOff, young: h.young.prefixWords(),
		limit: h.limit, cold: h.verify || h.young.enabled,
		inline: h.inGC && h.kind == Copying && !h.young.minorGC && !h.debugAccess && h.Repr == code.ReprTagFree}
}

// Field reads field i of the object at w.
func (cl *Claim) Field(w code.Word, i int) code.Word { return cl.mem[int(w)-code.HeapBase+i] }

// SetField writes field i of the object at w.
func (cl *Claim) SetField(w code.Word, i int, v code.Word) { cl.mem[int(w)-code.HeapBase+i] = v }

// Visit claims the n-word object at ptr exactly as VisitObject would: its
// current pointer, and whether its fields still need tracing (first visit).
// Inline, that is the copying collector's one copy.
func (cl *Claim) Visit(ptr code.Word, n int) (code.Word, bool) {
	base := int(ptr) - code.HeapBase
	if !cl.inline || base < cl.young {
		return cl.h.VisitObject(ptr, n)
	}
	off := base - cl.fromOff
	if e := cl.fwd[off]; e>>fwdShift == cl.epoch {
		return code.Word(code.HeapBase + fwdIndex(e)), false
	}
	h, nb := cl.h, cl.h.alloc
	if nb+n > cl.limit {
		panic(h.oomError(n))
	}
	h.alloc = nb + n
	to := cl.mem[nb : nb+n]
	for i, w := range cl.mem[base : base+n] {
		to[i] = w
	}
	h.Stats.WordsCopied += int64(n)
	cl.fwd[off] = cl.epoch<<fwdShift | uint64(nb)
	if cl.cold {
		h.owe(nb, n) // after the copy: nothing else reads the bump meanwhile
	}
	return code.Word(code.HeapBase + nb), true
}

// owe is what a copy of n words to nb owes besides its words: the exhaustion
// panic, the repayment of its share of the promotion holdback, the verifier's
// span.
func (h *Heap) owe(nb, n int) {
	if nb+n > h.limit {
		panic(h.oomError(n))
	}
	if h.oldReserve > 0 {
		h.oldReserve = max(h.oldReserve-n, 0)
	}
	if h.verify {
		h.spans = append(h.spans, span{base: nb, size: n})
	}
}

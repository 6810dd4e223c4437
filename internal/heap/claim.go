package heap

import (
	"fmt"

	"tagfree/internal/code"
)

// Cycle is the kind of collection Begin opens: the zero value is a major,
// which collects the whole heap; Minor collects the nursery only — every
// shard's, or with Shard (1-based) the one shard's whose mutators stopped.
// A shard minor's caller guarantees the shard unexposed (nursery.go), and
// only that shard's young TLABs need be retired: the other shards' buffers
// may stay live, since promotion bumps the old region past every carve and
// a minor never sweeps.
type Cycle struct {
	Minor bool
	Shard int
}

// Claim is a collection's heap as the tracer that claims objects in it holds
// it: the word array, what the cycle does with an old object (mode), the
// visit record and the cycle's epoch, and on a copying collection the
// record's from-space offset and the to-space limit beside the heap whose
// bump it advances. Begin fills it once per collection, so claiming an
// object is one call that re-decides nothing the cycle decided. On a
// tag-free copying major that call — read the visit entry, copy the words at
// the bump, forward — is straight-line loads and stores; every other mode,
// and a nursery object (below young) in any mode, is a branch of visit.
// Field and SetField address the word array for the tag-free
// representation.
type Claim struct {
	h     *Heap
	mem   []code.Word
	fwd   []uint64
	epoch uint64
	// fwdOff is subtracted from an old object's mem offset to index fwd:
	// fromOff less the young prefix (zero on a mark/sweep heap).
	fwdOff, young, limit int
	mode                 claimMode
	// cold says a copy owes more than its words (owe).
	cold bool
}

// claimMode is what a cycle's claim does with an object of the old region.
type claimMode uint8

const (
	// claimCopy copies a tag-free object to to-space and forwards it
	// through the side table: Visit's inline path.
	claimCopy claimMode = iota
	// claimMark stamps a mark/sweep object to itself; it stays in place.
	claimMark
	// claimMinor leaves it untouched: the remembered set stands in for the
	// old region's interior edges.
	claimMinor
	// claimTagged copies a headered object and leaves a broken heart (the
	// even new pointer) where its odd header was.
	claimTagged
)

// Begin opens the collection k and fills cl for it. Every kind shares this
// prologue — no collection in progress, no live allocation buffer in the
// collected area, the counters, the verifier's spans, the nursery's pins —
// and a copying major then flips allocation into to-space. The collector
// claims every object it reaches through cl and closes with End.
func (h *Heap) Begin(cl *Claim, k Cycle) {
	if h.inGC {
		panic("heap: Begin: collection already in progress")
	}
	if k.Minor && !h.young.enabled || k.Shard < 0 || k.Shard > 0 && (!k.Minor || k.Shard > len(h.young.shards)) {
		panic(fmt.Sprintf("heap: Begin: no nursery area to collect for %+v", k))
	}
	live := h.tlabs.live
	if k.Shard > 0 {
		live = h.tlabs.liveYoungIn(k.Shard - 1)
	}
	if live > 0 {
		panic("heap: Begin: live TLABs in the collected area must be retired first")
	}
	h.inGC = true
	h.Stats.Collections++
	h.spans = h.spans[:0]
	h.spansValid = false
	if h.young.enabled {
		h.young.minorGC, h.young.minorShard = k.Minor, k.Shard-1
		for i := range h.young.shards {
			h.young.shards[i].pinTop = h.young.shards[i].base
		}
	}
	mode := claimCopy
	switch {
	case k.Minor:
		h.Stats.MinorCollections++
		mode = claimMinor
	case h.kind == MarkSweep:
		mode = claimMark // marking happens in place; nothing to flip
	default:
		if h.young.enabled {
			// Promotions and old-object copies share the to-space bump;
			// hold back one word of headroom per used from-space word so
			// the copies (whose total can never exceed it) cannot be
			// starved by an unlucky promotion order.
			h.oldReserve = h.alloc - h.fromOff
		}
		h.alloc, h.limit = h.toOff, h.toOff+h.semi
		if h.Repr == code.ReprTagged {
			mode = claimTagged
		}
	}
	young := h.young.prefixWords()
	if n := young + h.semi; h.Repr == code.ReprTagFree && len(h.forward) < n {
		// Between collections every entry is stale, so a table sized for
		// the current layout loses nothing.
		h.forward = make([]uint64, n)
	}
	*cl = Claim{h: h, mem: h.mem, fwd: h.forward, epoch: h.fwdEpoch, fwdOff: h.fromOff - young, young: young,
		limit: h.limit, mode: mode, cold: h.verify || h.young.enabled}
}

// End closes the collection Begin opened: a major sweeps (mark/sweep) or
// completes the flip (copying), the collected nursery areas restart, the
// peak resident size takes the collection's reading, and the epoch advances,
// which makes every visit entry of the collection stale at once.
func (h *Heap) End() {
	if !h.inGC {
		panic("heap: End: no collection in progress")
	}
	h.inGC = false
	h.oldReserve = 0
	switch {
	case h.young.minorGC: // the old region stayed where it was
	case h.kind == MarkSweep:
		h.sweep()
	default:
		h.fromOff, h.toOff = h.toOff, h.fromOff
		h.Stats.LiveAfterLastGC = int64(h.alloc - h.fromOff)
		h.spansValid = h.verify
	}
	if h.young.enabled {
		h.endYoungGC()
	}
	// Every kind is a reading: what the old region holds — a minor's
	// promotions included — and what stays young, pinned.
	h.Stats.PeakLive = max(h.Stats.PeakLive, int64(h.OccupiedWords()+h.YoungUsed()))
	h.fwdEpoch++
}

// Field reads field i of the object at w.
func (cl *Claim) Field(w code.Word, i int) code.Word { return cl.mem[int(w)-code.HeapBase+i] }

// SetField writes field i of the object at w.
func (cl *Claim) SetField(w code.Word, i int, v code.Word) { cl.mem[int(w)-code.HeapBase+i] = v }

// Visit claims the n-word object at ptr — a tagged object's size comes from
// its header — and returns its current pointer and whether its fields still
// need tracing (first visit). On a tag-free copying major that is the copy,
// inline.
func (cl *Claim) Visit(ptr code.Word, n int) (code.Word, bool) {
	base := int(ptr) - code.HeapBase
	if cl.mode != claimCopy || base < cl.young {
		return cl.visit(ptr, n)
	}
	off := base - cl.fwdOff
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

// visit is Visit off the inline copy: a nursery object is promoted
// (youngVisit) in every mode; an old one is left alone by a minor, stamped to
// itself by mark/sweep, or copied behind a broken heart under the tagged
// representation. It recomputes base rather than take it: as an argument it
// is computed ahead of Visit's mode test, which shifts the inline copy's
// code.
func (cl *Claim) visit(ptr code.Word, n int) (code.Word, bool) {
	h, base := cl.h, int(ptr)-code.HeapBase
	if base < cl.young {
		return h.youngVisit(ptr, base, n)
	}
	switch cl.mode {
	case claimMinor:
		return ptr, false
	case claimMark:
		if h.objSize[base] <= 0 {
			panic(fmt.Sprintf("heap: collector visited a freed block at offset %d (size %d)", base, n))
		}
		if int(h.objSize[base]) != n {
			panic(fmt.Sprintf("heap: collector visited block at %d with size %d, allocated as %d",
				base, n, h.objSize[base]))
		}
		if _, ok := h.visited(base); ok {
			return ptr, false
		}
		h.stamp(base, base)
		h.Stats.WordsCopied += int64(n) // marked words (same column as copied)
		return ptr, true
	}
	base = h.addrIndex(ptr)
	hdr := cl.mem[base]
	if hdr&1 == 0 {
		return hdr, false // already copied: the broken heart
	}
	total, nb := int(hdr>>1)+1, h.alloc
	h.owe(nb, total)
	h.alloc += total
	copy(cl.mem[nb:nb+total], cl.mem[base:base+total])
	h.Stats.WordsCopied += int64(total)
	cl.mem[base] = code.EncodePtr(h.Repr, code.HeapBase+nb)
	return cl.mem[base], true
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

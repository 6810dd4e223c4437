package heap

import (
	"fmt"
	"sort"

	"tagfree/internal/code"
)

// Post-collection heap verification. A collector bug — a missed root, a
// stale forwarding entry, a hole laid over a live object
// — corrupts the heap long before it crashes the mutator. VerifyHeap checks
// the discipline's structural invariants immediately after a collection,
// while the heap is still in the state the collector left it:
//
//   - Copying: the objects copied this cycle must tile the new from-space
//     exactly (forwarding completeness: every allocated word belongs to
//     exactly one copied object), and every tag-free visit entry the cycle
//     wrote must point into that space or, for a pinned young object, at
//     the object itself. Tagged heaps additionally
//     re-walk headers, checking that each is odd, extents tile the space,
//     and every pointer-shaped field lands on an object start.
//   - Mark/sweep: object and gap extents must tile the old region with no
//     overlap or unaccounted words, the objects must hold exactly the
//     occupied words, and the current hole and every later one must be a
//     gap of its own extent, in address order. (No mark needs clearing:
//     End's epoch bump retires them all.) The tiling holds after every
//     Settle too, so the walk may run whenever no buffer is live.
//
// Span recording costs one append per copied object, so verification is
// opt-in: SetVerify(true) before running (on by default in the test
// suites, behind -verify-heap in the CLIs).

// SetVerify enables span recording during copying collections, which
// VerifyHeap and CheckLive need for exact extent checks.
func (h *Heap) SetVerify(on bool) { h.verify = on }

// VerifyHeap validates the discipline's post-collection invariants and
// returns every violation found (nil when the heap is sound). Call it
// right after a collection, before the mutator allocates again.
func (h *Heap) VerifyHeap() []error {
	var errs []error
	if h.young.enabled {
		errs = h.verifyNursery()
	}
	if h.tlabs.enabled {
		errs = append(errs, h.VerifyTLABs()...)
	}
	if h.kind == MarkSweep {
		return append(errs, h.verifyMarkSweep()...)
	}
	return append(errs, h.verifyCopying()...)
}

func (h *Heap) verifyCopying() []error {
	var errs []error
	if h.alloc < h.fromOff || h.alloc > h.limit {
		errs = append(errs, fmt.Errorf("heap verify: alloc %d outside active space [%d, %d]",
			h.alloc, h.fromOff, h.limit))
		return errs
	}
	// End advanced the epoch past the cycle's stamp, so no entry forwards
	// any more; what the cycle did write must point into what it copied, or
	// be a young object's pin. (Epoch 0 is the stamp of entries never
	// written.)
	if last := h.fwdEpoch - 1; last > 0 {
		young := h.young.prefixWords()
		for i, f := range h.forward {
			to := fwdIndex(f)
			if f>>fwdShift == last && (to < h.fromOff || to >= h.alloc) && !(i < young && to == i) {
				errs = append(errs, fmt.Errorf("heap verify: forwarding entry %d of the last collection points to %d, outside the copied region [%d, %d)",
					i, to, h.fromOff, h.alloc))
				break // one is enough; don't spam
			}
		}
	}
	if h.spansValid {
		// Forwarding completeness: the copied spans, in copy order, must
		// tile [fromOff, alloc) exactly — no holes, no overlap.
		at := h.fromOff
		for i, s := range h.spans {
			if s.base != at {
				errs = append(errs, fmt.Errorf("heap verify: span %d starts at %d, want %d (hole or overlap in to-space)",
					i, s.base, at))
				break
			}
			at += s.size
		}
		if at != h.alloc {
			errs = append(errs, fmt.Errorf("heap verify: copied spans cover [%d, %d), allocated region ends at %d",
				h.fromOff, at, h.alloc))
		}
	}
	if h.Repr == code.ReprTagged {
		errs = append(errs, h.verifyTaggedSpace()...)
	}
	return errs
}

// verifyTaggedSpace re-walks the tagged from-space by headers: extents must
// tile the allocated region, headers must be odd, and every pointer-shaped
// field must address an object start.
func (h *Heap) verifyTaggedSpace() []error {
	var errs []error
	starts := map[int]bool{}
	for base := h.fromOff; base < h.alloc; {
		hdr := h.mem[base]
		if hdr&1 != 1 {
			errs = append(errs, fmt.Errorf("heap verify: even header %d at offset %d (broken heart left behind?)", hdr, base))
			return errs
		}
		n := int(hdr >> 1)
		if n < 0 || base+1+n > h.alloc {
			errs = append(errs, fmt.Errorf("heap verify: object at %d with %d fields overruns allocated region %d", base, n, h.alloc))
			return errs
		}
		starts[base] = true
		base += 1 + n
	}
	for base := h.fromOff; base < h.alloc; {
		n := int(h.mem[base] >> 1)
		for i := 1; i <= n; i++ {
			w := h.mem[base+i]
			if !code.IsBoxedValue(h.Repr, w) {
				continue
			}
			tgt := code.DecodePtr(h.Repr, w) - code.HeapBase
			if !starts[tgt] {
				errs = append(errs, fmt.Errorf("heap verify: field %d of object at %d points to %d, not an object start", i-1, base, tgt))
			}
		}
		base += 1 + n
	}
	return errs
}

func (h *Heap) verifyMarkSweep() []error {
	// Block tiling: every word of the old region is inside exactly one
	// object or one gap.
	end, objects := h.fromOff+h.semi, 0
	for base := h.fromOff; base < end; {
		n := int(h.objSize[base])
		if n == 0 || base-n > end || base+n > end {
			return []error{fmt.Errorf("heap verify: word %d is neither in an object nor a gap inside the region", base)}
		}
		if n > 0 {
			objects += n
		}
		base += max(n, -n)
	}
	var errs []error
	if objects != h.occupied {
		errs = append(errs, fmt.Errorf("heap verify: objects hold %d words, %d booked as occupied", objects, h.occupied))
	}
	// The holes still ahead of allocation: each a gap of its own extent,
	// in address order — the current one first, or last while it is still
	// the tail the sweep made current (nextHole 0).
	ahead := append([]span{{h.alloc, h.limit - h.alloc}}, h.holes[h.nextHole:]...)
	if h.nextHole == 0 {
		ahead = append(ahead[1:], ahead[0])
	}
	at := h.fromOff
	for _, hole := range ahead {
		switch {
		case hole.size == 0:
			continue
		case hole.base < at || hole.base+hole.size > end:
			errs = append(errs, fmt.Errorf("heap verify: hole [%d, %d) out of order or outside the region", hole.base, hole.base+hole.size))
		case int(h.objSize[hole.base]) != -hole.size:
			errs = append(errs, fmt.Errorf("heap verify: hole [%d, %d) recorded as size %d", hole.base, hole.base+hole.size, h.objSize[hole.base]))
		}
		at = hole.base + hole.size
	}
	return errs
}

// CheckLive reports whether ptr addresses a live n-field object. The GC
// verifier calls it for every pointer reached from the roots after a
// collection: a traced pointer that does not land on a live block of the
// expected extent means the collector retained garbage or dropped a copy.
// On a copying heap the exact check needs the span table (SetVerify); when
// spans are unavailable it degrades to a bounds check on the active space.
func (h *Heap) CheckLive(ptr code.Word, n int) error {
	base := h.addrIndex(ptr)
	total := h.objWords(n)
	if h.young.enabled && base < h.young.prefixWords() {
		// A live young object sits in its shard's area below the bump
		// pointer — after a collection, only a pinned one. A pointer above
		// it is exactly what a missed write barrier leaves behind — the
		// barrier fuzz relies on this check firing for it.
		s := &h.young.shards[h.youngShardOf(base)]
		if base+total > s.youngAlloc {
			return fmt.Errorf("young pointer to [%d, %d) outside the live nursery [%d, %d)",
				base, base+total, s.base, s.youngAlloc)
		}
		return nil
	}
	if h.kind == MarkSweep {
		if base < 0 || base >= len(h.objSize) {
			return fmt.Errorf("pointer to offset %d outside the heap", base)
		}
		if h.objSize[base] <= 0 {
			return fmt.Errorf("pointer to freed block at offset %d", base)
		}
		if int(h.objSize[base]) != total {
			return fmt.Errorf("pointer to block at offset %d sized %d, traced as %d", base, h.objSize[base], total)
		}
		return nil
	}
	if base < h.fromOff || base+total > h.alloc {
		return fmt.Errorf("pointer to [%d, %d) outside the live region [%d, %d)", base, base+total, h.fromOff, h.alloc)
	}
	if h.spansValid {
		i := sort.Search(len(h.spans), func(i int) bool { return h.spans[i].base >= base })
		if i >= len(h.spans) || h.spans[i].base != base {
			return fmt.Errorf("pointer to offset %d, not a copied object start", base)
		}
		if h.spans[i].size != total {
			return fmt.Errorf("pointer to object at offset %d copied with %d words, traced as %d", base, h.spans[i].size, total)
		}
	}
	return nil
}

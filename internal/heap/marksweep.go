package heap

import (
	"fmt"

	"tagfree/internal/code"
)

// Mark/sweep support. The paper notes its method "will support mark/sweep
// collection as well" (§2): the same compiler-generated frame maps drive
// marking instead of copying. Tag-free objects carry no header to hold a
// mark bit or a size, so the sweep needs side metadata; real tag-free
// systems use size-segregated pages (BiBoP) whose page headers supply
// both. The simulator models that with one side array of block sizes
// (objSize: an object's size at its start, minus a swept gap's at the
// gap's) and marks through the copying mode's visit record: a mark is an
// entry stamped with the collection's epoch that points at the object
// itself. Both are collector bookkeeping, excluded from space accounting.
//
// Freed storage goes to exact-size free lists (the BiBoP discipline:
// a block is reused only for objects of its own size class); allocation
// bumps until the space is exhausted, then recycles.

// GCKind selects the collection discipline.
type GCKind int

// Collection disciplines.
const (
	Copying GCKind = iota
	MarkSweep
)

// NewMarkSweep creates a mark/sweep heap with the given total size in
// words. Only tag-free programs use it (the tagged baseline reproduces
// the classical copying collector).
func NewMarkSweep(repr code.Repr, totalWords int) *Heap {
	if repr != code.ReprTagFree {
		panic("NewMarkSweep: mark/sweep is implemented for the tag-free representation")
	}
	h := &Heap{
		Repr:     repr,
		kind:     MarkSweep,
		mem:      make([]code.Word, totalWords),
		semi:     totalWords,
		fromOff:  0,
		toOff:    0,
		alloc:    0,
		limit:    totalWords,
		objSize:  make([]int32, totalWords),
		fwdEpoch: 1,
	}
	return h
}

// Kind returns the heap's collection discipline.
func (h *Heap) Kind() GCKind { return h.kind }

// msCanAlloc reports whether n object words fit without collecting.
func (h *Heap) msCanAlloc(n int) bool {
	return h.alloc+n <= h.limit || h.freeLen(n) > 0
}

// freeLen is the number of n-word blocks parked on their free list.
func (h *Heap) freeLen(n int) int {
	if n >= len(h.free) {
		return 0
	}
	return len(h.free[n])
}

// freePush parks the n-word block at base on its size class's list.
func (h *Heap) freePush(n, base int) {
	if n >= len(h.free) {
		h.free = append(h.free, make([][]int, n+1-len(h.free))...)
	}
	h.free[n] = append(h.free[n], base)
}

// freePop takes the most recently freed n-word block, if any.
func (h *Heap) freePop(n int) (int, bool) {
	if h.freeLen(n) == 0 {
		return 0, false
	}
	l := h.free[n]
	h.free[n] = l[:len(l)-1]
	h.Stats.FreeListHits++
	return l[len(l)-1], true
}

// FreeListWords returns the total storage parked on the mark/sweep free
// lists across all size classes. On a copying heap it is zero.
func (h *Heap) FreeListWords() int {
	total := 0
	for n, l := range h.free {
		total += n * len(l)
	}
	return total
}

// sweep ends a mark/sweep major: every allocated object this collection did
// not stamp becomes a gap on its size class's free list. Nothing is cleared:
// End's epoch bump unmarks every survivor at once.
func (h *Heap) sweep() {
	live := int64(0)
	// Reset free lists; rebuild from the sweep (freed blocks may have been
	// reallocated and re-freed across cycles).
	for n := range h.free {
		h.free[n] = h.free[n][:0]
	}
	for base := h.fromOff; base < h.alloc; {
		n := int(h.objSize[base])
		if n < 0 {
			// A gap left by an earlier sweep whose block was never
			// reallocated.
			h.freePush(-n, base)
			base -= n
			continue
		}
		if _, ok := h.visited(base); ok {
			live += int64(n)
		} else {
			h.freePush(n, base)
			h.objSize[base] = int32(-n)
			if h.poison {
				h.poisonRange(base, n)
			}
		}
		base += n
	}
	h.Stats.LiveAfterLastGC = live
	if live > h.Stats.PeakLive {
		h.Stats.PeakLive = live
	}
}

// Coalesce is the mark/sweep heap's last resort before an allocation of n
// fields faults for want of a block of its size class — with allocation
// buffers, the region ends up tiled with exact-size tails no object
// matches. It gives a run of adjacent gaps that ends at the bump pointer
// back to the bump region and, if the bump region still cannot take the
// object, cuts the largest run of adjacent gaps into blocks of its size. It
// reports whether the object fits now. Only the recovery ladder calls it,
// once collection and growth have failed, so a run that never exhausts the
// heap never coalesces.
func (h *Heap) Coalesce(n int) bool {
	total := h.objWords(n)
	if h.kind != MarkSweep || h.inGC || h.tlabs.live > 0 || h.youngFits(total) {
		return false
	}
	type run struct{ base, size int }
	var runs []run
	h.eachGap(func(base, size int) {
		if k := len(runs) - 1; k >= 0 && runs[k].base+runs[k].size == base {
			runs[k].size += size
		} else {
			runs = append(runs, run{base, size})
		}
	})
	if k := len(runs) - 1; k >= 0 && runs[k].base+runs[k].size == h.alloc {
		h.alloc = runs[k].base
		runs = runs[:k]
	}
	if h.alloc+total > h.limit {
		var best run
		for _, r := range runs {
			if r.size > best.size {
				best = r
			}
		}
		if end := best.base + best.size; best.size >= total {
			for b := best.base; b+total <= end; b += total {
				h.objSize[b] = int32(-total)
			}
			if r := best.size % total; r > 0 {
				h.objSize[end-r] = int32(-r)
			}
		}
	}
	for k := range h.free {
		h.free[k] = h.free[k][:0]
	}
	h.eachGap(func(base, size int) { h.freePush(size, base) })
	return h.msCanAlloc(total)
}

// eachGap calls f for every swept gap below the bump pointer, in address
// order.
func (h *Heap) eachGap(f func(base, size int)) {
	for base := h.fromOff; base < h.alloc; {
		n := int(h.objSize[base])
		if n < 0 {
			n = -n
			f(base, n)
		}
		base += n
	}
}

// SetDebugAccess enables per-access validation: reading or writing a field
// of a freed block panics with the offending offset (tests only).
func (h *Heap) SetDebugAccess(on bool) { h.debugAccess = on }

func (h *Heap) checkAccess(ptr code.Word, i int) {
	if h.kind != MarkSweep {
		return
	}
	base := h.addrIndex(ptr)
	if h.young.enabled && base < h.young.prefixWords() {
		if h.inGC {
			return // promotion reads the area mid-collection
		}
		s := &h.young.shards[h.youngShardOf(base)]
		if base >= s.youngAlloc {
			panic(fmt.Sprintf("heap: field access to young offset %d outside the live nursery [%d, %d)",
				base, s.base, s.youngAlloc))
		}
		return
	}
	if base < 0 || base >= len(h.objSize) {
		panic(fmt.Sprintf("heap: field access outside heap at offset %d", base))
	}
	if h.objSize[base] <= 0 {
		panic(fmt.Sprintf("heap: field access to freed block at offset %d (field %d)", base, i))
	}
	if i >= int(h.objSize[base]) {
		panic(fmt.Sprintf("heap: field %d out of bounds for block at %d (size %d)", i, base, h.objSize[base]))
	}
}

// SetPoison makes the sweep overwrite freed blocks with a sentinel value.
// Any later read of freed memory then produces loudly-wrong values instead
// of silently-stale ones (tests use it to harden against collector
// precision bugs; see DESIGN.md §8 for the incident that motivated it).
func (h *Heap) SetPoison(on bool) { h.poison = on }

// PoisonWord is the sentinel written into freed blocks under SetPoison.
const PoisonWord code.Word = -0x7D0150

func (h *Heap) poisonRange(base, n int) {
	for i := 0; i < n; i++ {
		h.mem[base+i] = PoisonWord
	}
}

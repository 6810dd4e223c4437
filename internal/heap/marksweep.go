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
// both. The simulator keeps one side array of block sizes (objSize: an
// object's size at its start, minus a gap's at the gap's) and marks through
// the copying mode's visit record: a mark is an entry stamped with the
// collection's epoch that points at the object itself. Both are collector
// bookkeeping, excluded from space accounting.
//
// Freed storage is reused by bumping into holes (Immix's bump-into-holes,
// Blackburn & McKinley, PLDI 2008). The sweep merges every run of adjacent
// dead blocks and gaps below the high-water mark (top) into one gap — a
// hole — and lists the holes in address order. The words above top, never
// allocated, are the tail, and the tail is the current hole, [alloc,
// limit): allocation bumps it first and recycles after, as a bump allocator
// with free lists does. Objects are bumped into the current hole by a window
// (the interpreter's, Alloc's), a buffer carve or a promotion, and when the
// next one does not fit, allocation moves on to the first listed hole that
// takes it — forward only, so what the holes it passes hold stays a gap
// until the next sweep. Whoever bumps writes each object's size at its
// start, and Settle writes what is left of the hole back as a gap: the
// region is tiled by objects and gaps whenever anything but the holder
// looks at it.

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
	h.gapAtAlloc() // the whole region is the current hole
	return h
}

// Kind returns the heap's collection discipline.
func (h *Heap) Kind() GCKind { return h.kind }

// gapAtAlloc writes what is left of the current hole back as a gap.
func (h *Heap) gapAtAlloc() {
	if h.alloc < h.limit {
		h.objSize[h.alloc] = int32(h.alloc - h.limit)
	}
}

// laterHole returns the index of the first hole past the current one that
// can take total words, or -1.
func (h *Heap) laterHole(total int) int {
	for i := h.nextHole; i < len(h.holes); i++ {
		if h.holes[i].size >= total {
			return i
		}
	}
	return -1
}

// holeFits reports whether total words fit the current hole, moving on to
// the first later hole that takes them when they do not. The hole it leaves
// is already a gap: its last bump wrote the rest of it back; leaving the
// tail raises the high-water mark to where allocation stopped in it.
func (h *Heap) holeFits(total int) bool {
	if h.alloc+total <= h.limit {
		return true
	}
	i := h.laterHole(total)
	if i < 0 {
		return false
	}
	hole := h.holes[i]
	h.top = max(h.top, h.alloc)
	h.alloc, h.limit, h.nextHole = hole.base, hole.base+hole.size, i+1
	h.Stats.HoleSwitches++
	return true
}

// bumpHole takes size words at the head of the current hole, which holeFits
// made room for, as occupied: a promoted object or a carved buffer.
func (h *Heap) bumpHole(size int) int {
	base := h.alloc
	h.alloc += size
	h.occupied += size
	h.gapAtAlloc()
	return base
}

// settleHole books what a window laid in the current hole from start up to
// alloc: the rest of the hole goes back as a gap, the words are occupied,
// and objects laid below the high-water mark — in a hole a sweep left, not
// the tail — count as recycled storage.
func (h *Heap) settleHole(start int, objects, words int64) {
	h.gapAtAlloc()
	h.occupied += int(words)
	if start < h.top {
		h.Stats.FreeListHits += objects
	}
}

// sweep ends a mark/sweep major: every allocated object this collection did
// not stamp dies, each run of adjacent dead blocks and gaps below the
// high-water mark becomes one hole, and the tail above it becomes the current
// hole again. A dead block keeps its own size, negated, inside its hole, so
// that a stale pointer to it still reads as freed (checkAccess, Claim.visit).
// Nothing is cleared: End's epoch bump unmarks every survivor at once.
func (h *Heap) sweep() {
	h.top = max(h.top, h.alloc)
	live, end := 0, h.fromOff+h.semi
	h.holes = h.holes[:0]
	for base := h.fromOff; base < h.top; {
		n := int(h.objSize[base])
		if n > 0 {
			if _, ok := h.visited(base); ok {
				live += n
				base += n
				continue
			}
			h.objSize[base] = int32(-n)
			if h.poison {
				h.poisonRange(base, n)
			}
		} else {
			n = -n // a gap an earlier sweep, a buffer or a hole's rest left
		}
		if k := len(h.holes) - 1; k >= 0 && h.holes[k].base+h.holes[k].size == base {
			h.holes[k].size += n
		} else {
			h.holes = append(h.holes, span{base, n})
		}
		base += n
	}
	for _, hole := range h.holes {
		h.objSize[hole.base] = int32(-hole.size)
	}
	h.alloc, h.limit, h.nextHole = h.top, end, 0
	h.gapAtAlloc()
	h.occupied = live
	h.Stats.LiveAfterLastGC = int64(live)
}

// growHoles makes the words a grow to newWords adds one more gap: the tail
// of the current hole or of the last hole when it ends where they begin.
func (h *Heap) growHoles(newWords int) {
	end, more := h.fromOff+h.semi, newWords-h.semi
	k := len(h.holes) - 1
	switch {
	case h.limit == end:
		h.limit += more
		h.gapAtAlloc()
	case k >= h.nextHole && h.holes[k].base+h.holes[k].size == end:
		h.holes[k].size += more
		h.objSize[h.holes[k].base] = int32(-h.holes[k].size)
	default:
		h.holes = append(h.holes, span{end, more})
		h.objSize[end] = int32(-more)
	}
}

// SetDebugAccess enables per-access validation: reading or writing a field
// of a freed block — one inside a hole included — panics with the offending
// offset (tests only).
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

package heap

import (
	"fmt"

	"tagfree/internal/code"
)

// Generational nursery support. Goldberg's frame GC routines make stacks
// re-traceable at zero metadata cost, which is exactly the property a
// generational collector needs: stack (and global) roots are rescanned on
// every minor collection anyway, so a remembered set only has to cover
// old→young *heap* stores. The policy is Appel's "Simple Generational
// Garbage Collection and Fast Allocation" (SP&E 1989): the whole young area
// is allocation space, and every collection promotes every live young
// object, so nothing is copied young and no object carries an age.
//
// Layout: the nursery is a set of shards — one per task group under
// -shards N, a single shard otherwise — each shard one young area of
// 2·youngWords words, placed at the *front* of the word array, below both
// disciplines' regions:
//
//	mem = [ sh0 young area | sh1 young area | ... | old ]
//
// Young offsets are therefore fixed for the life of the heap — Grow extends
// only the old region above them, so growing never moves a young object and
// the recovery ladder works unchanged mid-nursery. A pointer is young iff
// its offset is below shards*2*youngWords; its owning shard is the offset
// divided by the per-shard extent. The write barrier stays two compares.
// youngWords is also the largest object born young: a larger one is
// pre-tenured into the old region.
//
// Allocation in the nursery is a pure bump in the allocation shard's area —
// a window on it (OpenWindow; SetAllocShard routes each task to its shard, a
// single-shard heap never changes it). A collection copies every live
// object of the areas it collects into the shared old region (promoteDest:
// the discipline's normal allocation — semispace bump under copying, the
// first hole that takes it under mark/sweep) and restarts each area's bump
// at its base.
//
// A promotion fails when the old region has no room: a minor with the
// semispace full (or no mark/sweep hole the object fits), or a copying
// major whose to-space slack is owed to uncopied old objects (oldReserve). The object is then pinned: stamped to itself in the heap's
// visit record, its fields traced where it stands, and the area's bump
// restarts above the highest pinned object instead of at its base. A
// promotion is stamped with its new address in the same record, indexed by
// the young object's mem offset; End's epoch bump retires every such entry,
// so nothing is cleared between collections. Stats.PromotionFailures counts the
// pins, and the collector answers any with a major next (the
// promotion-failure handling of HotSpot's young collectors); the recovery
// ladder's growth rung makes the room a repeated failure lacks. No room is
// checked up front: a collection never overflows, it pins.
//
// A *global* collection (minor or major) collects every shard. A *shard*
// minor (Begin with Cycle.Shard) collects exactly one shard's area and leaves
// every other shard's mutators and objects untouched — the scheduler
// guarantees, via its exposure tracking, that no pointer into the collected
// shard lives outside that shard's task stacks, its own young objects, and
// the remembered set, so the trace is complete without stopping anyone
// else.
//
// During a *minor* collection old objects are not traced at all: the
// cycle's claim returns them untouched, so the existing typed trace
// (frame plans, kernels, recursive TypeGC walks) stops at the young/old
// boundary automatically and only the remembered set (owned by the
// collector, see internal/gc) re-traces interior old→young edges. During
// a *shard* minor, other shards' young objects are likewise returned
// untouched. During a *major*, old objects take the discipline's normal
// path and every young object is promoted in the same trace.
type nursery struct {
	enabled bool
	// youngWords is half of each shard's area, and the largest object the
	// nursery takes.
	youngWords int
	// shards holds the per-shard nursery state; a non-sharded heap has
	// exactly one.
	shards []nurseryShard
	// allocShard routes young allocation (and TLAB carves) to one shard's
	// area. The tasking scheduler sets it before each task's quantum;
	// single-shard heaps leave it 0.
	allocShard int
	// minorGC is true while the in-progress collection is a minor one.
	minorGC bool
	// minorShard is the shard collected by the in-progress — or, between
	// collections, the most recent — shard minor, or -1 when that
	// collection (minor or major) spans all shards. VerifyTLABs reads it
	// after the collection to know whose buffers had to be retired.
	minorShard int
}

// nurseryShard is one shard's young area [base, limit). All offsets are
// absolute mem indexes.
type nurseryShard struct {
	base, limit int
	// youngAlloc is the bump pointer: [base, youngAlloc) has been allocated
	// since the last collection, above the objects that collection pinned.
	youngAlloc int
	// pinTop, during a collection, is the end of the highest object it
	// pinned (base when none): where the bump restarts.
	pinTop int
}

// prefixWords is the young prefix extent: every offset below it is young,
// everything at or above it is the old region. Zero without a nursery.
func (n *nursery) prefixWords() int {
	if !n.enabled {
		return 0
	}
	return len(n.shards) * 2 * n.youngWords
}

// EnableNursery re-lays the heap out with a generational nursery of
// 2·youngWords words in front of the old region(s). It must be called
// before the first allocation (the re-layout moves the old region), and only
// on a tag-free heap: young objects are headerless and promotion is
// type-directed, exactly like the rest of the collector.
func (h *Heap) EnableNursery(youngWords int) {
	h.EnableNurseryShards(youngWords, 1)
}

// EnableNurseryShards is EnableNursery with the young prefix partitioned
// into shards independent young areas (see the package comment on
// sharding). Shard 0 is the initial allocation shard.
func (h *Heap) EnableNurseryShards(youngWords, shards int) {
	if h.Repr != code.ReprTagFree {
		panic("EnableNursery: the nursery requires the tag-free representation")
	}
	if h.inGC || h.Stats.Allocations > 0 {
		panic("EnableNursery: must be configured before the first allocation")
	}
	if youngWords <= 0 {
		panic("EnableNursery: youngWords must be positive")
	}
	if shards < 1 {
		panic("EnableNursery: shard count must be at least 1")
	}
	n := &h.young
	n.enabled = true
	n.youngWords = youngWords
	n.allocShard = 0
	n.minorShard = -1
	n.shards = make([]nurseryShard, shards)
	for i := range n.shards {
		s := &n.shards[i]
		s.base = i * 2 * youngWords
		s.limit = s.base + 2*youngWords
		s.youngAlloc = s.base
	}

	shift := n.prefixWords()
	if h.kind == MarkSweep {
		h.mem = make([]code.Word, shift+h.semi)
		h.fromOff, h.toOff = shift, shift
		h.alloc = shift
		h.limit = shift + h.semi
		h.objSize = make([]int32, len(h.mem))
		h.gapAtAlloc()
	} else {
		h.mem = make([]code.Word, shift+2*h.semi)
		h.fromOff = shift
		h.toOff = shift + h.semi
		h.alloc = h.fromOff
		h.limit = h.fromOff + h.semi
	}
	// The visit record is sized here, with the young areas, not at the
	// first collection (Begin): allocated mid-run it raised the nursery
	// benchmark's peak RSS by about a tenth.
	h.forward = make([]uint64, shift+h.semi)
}

// NurseryEnabled reports whether the heap has a generational nursery.
func (h *Heap) NurseryEnabled() bool { return h.young.enabled }

// YoungWords returns the largest object the nursery takes — half of each
// shard's area (0 without a nursery).
func (h *Heap) YoungWords() int { return h.young.youngWords }

// YoungTotalWords returns the heap's total young allocation capacity: every
// shard's whole area. This is the figure occupancy-based policies (serve's
// load shedding) must use — YoungWords alone under-counts.
func (h *Heap) YoungTotalWords() int { return h.young.prefixWords() }

// YoungUsed returns the words allocated across every shard's area, pinned
// survivors included.
func (h *Heap) YoungUsed() int {
	used := 0
	for i := range h.young.shards {
		s := &h.young.shards[i]
		used += s.youngAlloc - s.base
	}
	return used
}

// SetAllocShard routes subsequent young allocation (bump fast path and
// TLAB carves) to the given shard's area. The tasking scheduler calls it
// before each task's quantum.
func (h *Heap) SetAllocShard(shard int) {
	if shard < 0 || shard >= len(h.young.shards) {
		panic(fmt.Sprintf("SetAllocShard: shard %d out of range (%d shards)", shard, len(h.young.shards)))
	}
	h.young.allocShard = shard
}

// InYoung reports whether w is a pointer into the nursery. Callers must
// already know w is a pointer-shaped value (tag-free integers can alias
// heap addresses); the barrier guarantees that via static store types.
func (h *Heap) InYoung(w code.Word) bool {
	if !h.young.enabled {
		return false
	}
	off := int(w) - code.HeapBase
	return off >= 0 && off < h.young.prefixWords()
}

// InOld reports whether w is a pointer into the old region.
func (h *Heap) InOld(w code.Word) bool {
	off := int(w) - code.HeapBase
	return off >= h.young.prefixWords() && off < len(h.mem)
}

// youngShardOf returns the shard owning a young mem offset.
func (h *Heap) youngShardOf(base int) int {
	return base / (2 * h.young.youngWords)
}

// YoungShardOf returns the shard owning young pointer w. Callers must
// have established InYoung(w) first.
func (h *Heap) YoungShardOf(w code.Word) int {
	return h.youngShardOf(int(w) - code.HeapBase)
}

// YoungRange returns the first address and the length in words of one shard's
// young area — or, for shard < 0, of every shard's: InYoung and YoungShardOf
// as one compare each, for a caller that cannot afford the calls.
func (h *Heap) YoungRange(shard int) (lo, span uint64) {
	per := 2 * h.young.youngWords
	if shard < 0 {
		return code.HeapBase, uint64(h.young.prefixWords())
	}
	return uint64(code.HeapBase + shard*per), uint64(per)
}

// InYoungShard reports whether w is a young pointer owned by the given
// shard.
func (h *Heap) InYoungShard(w code.Word, shard int) bool {
	return h.InYoung(w) && h.YoungShardOf(w) == shard
}

// endYoungGC restarts the collected shards' bumps: at the base, or above
// what the collection pinned. A shard minor restarts only its own shard.
func (h *Heap) endYoungGC() {
	n := &h.young
	for i := range n.shards {
		if n.minorShard < 0 || i == n.minorShard {
			n.shards[i].youngAlloc = n.shards[i].pinTop
		}
	}
	n.minorGC = false
}

// youngVisit is Claim.Visit for nursery pointers in every cycle's mode:
// forward if already visited, else promote — or pin in place when the old
// region has no room — and stamp the object's new home (itself for a pin). During a shard minor, other shards' objects are
// returned untouched, exactly like old objects — the exposure invariant
// guarantees nothing reachable only through them belongs to the collected
// shard.
func (h *Heap) youngVisit(ptr code.Word, base, n int) (code.Word, bool) {
	y := &h.young
	if !h.inGC {
		panic("heap: young object visited outside a collection")
	}
	t := h.youngShardOf(base)
	if y.minorShard >= 0 && t != y.minorShard {
		return ptr, false
	}
	s := &y.shards[t]
	if base+n > s.youngAlloc {
		panic(fmt.Sprintf("heap: collector visited young offset %d (size %d) outside shard %d's live nursery [%d, %d)",
			base, n, t, s.base, s.youngAlloc))
	}
	if home, ok := h.visited(base); ok {
		return code.Word(code.HeapBase + home), false
	}
	nb, ok := h.promoteDest(n)
	if ok {
		copy(h.mem[nb:nb+n], h.mem[base:base+n])
		h.Stats.WordsCopied += int64(n)
		h.Stats.PromotedWords += int64(n)
	} else {
		nb = base
		s.pinTop = max(s.pinTop, base+n)
		h.Stats.PromotionFailures++
	}
	h.stamp(base, nb)
	return code.Word(code.HeapBase + nb), true
}

// promoteDest allocates n words in the old region for a tenured object, by
// the discipline's own rules. During a copying major the destination is
// to-space (alloc already points there); during a minor it is the mutator's
// from-space bump region. Mark/sweep bumps into the first hole that takes
// the object, and stamps the block to itself — a mark — when a sweep will
// follow (majors only).
// Reports false when the old region cannot take the object.
func (h *Heap) promoteDest(n int) (int, bool) {
	var base int
	if h.kind == MarkSweep {
		if !h.holeFits(n) {
			return 0, false
		}
		base = h.bumpHole(n)
		h.objSize[base] = int32(n)
		if !h.young.minorGC {
			h.stamp(base, base) // keep the promoted block through the sweep
		}
		return base, true
	}
	// During a copying major, oldReserve words of to-space are owed to old
	// objects not yet copied; promotions may only take the slack beyond it
	// (and pin otherwise — see youngVisit).
	if h.alloc+n > h.limit-h.oldReserve {
		return 0, false
	}
	base = h.alloc
	h.alloc += n
	if h.verify && !h.young.minorGC {
		h.spans = append(h.spans, span{base: base, size: n})
	}
	return base, true
}

// verifyNursery checks every shard's bump pointer is inside its area after a
// collection.
func (h *Heap) verifyNursery() []error {
	var errs []error
	for i := range h.young.shards {
		s := &h.young.shards[i]
		if s.youngAlloc < s.base || s.youngAlloc > s.limit {
			errs = append(errs, fmt.Errorf("heap verify: shard %d nursery bump %d outside its area [%d, %d]",
				i, s.youngAlloc, s.base, s.limit))
		}
	}
	return errs
}

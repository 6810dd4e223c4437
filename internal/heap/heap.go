// Package heap implements the simulated heap: a flat word array split into
// two semispaces for copying collection.
//
// The reproduction cannot observe a real process heap (the Go runtime's own
// collector interferes), so all MinML objects live in this array and all
// "pointers" are indexes offset by code.HeapBase. Two object formats are
// supported:
//
//   - Tag-free (the paper's design): an object is exactly its fields; there
//     are no headers. Object extents come from the compiler-generated GC
//     metadata that drives the collector. Forwarding during copying uses a
//     side table (a real implementation would overwrite the first field and
//     detect to-space addresses; the side table is equivalent and keeps the
//     simulation honest about not needing in-object bits). The same
//     epoch-stamped table records every visit of every discipline — a
//     promotion, a nursery pin, a mark/sweep mark (Heap.forward).
//   - Tagged (the baseline): every object carries one header word encoding
//     its length, and the collector relies on per-word tags. Forwarding
//     overwrites the header with a broken-heart pointer (headers are odd,
//     pointers even).
//
// The heap never triggers collection itself: the abstract machine checks
// Need before allocating and runs a collector at a safe point, matching the
// paper's "collection can only be initiated by a call to an allocating
// procedure" discipline (§2.1).
package heap

import (
	"fmt"

	"tagfree/internal/code"
)

// Stats counts heap activity for the experiment harness.
type Stats struct {
	// Allocations is the number of objects allocated.
	Allocations int64
	// WordsAllocated counts all words ever allocated (headers included).
	WordsAllocated int64
	// Collections is the number of garbage collections run.
	Collections int64
	// WordsCopied counts words copied by all collections.
	WordsCopied int64
	// LiveAfterLastGC is the resident size after the last collection.
	LiveAfterLastGC int64
	// PeakLive is the maximum resident size observed after any collection,
	// minors included: the old region's occupied words plus the young
	// objects the collection left pinned.
	PeakLive int64
	// FreeListHits counts mark/sweep objects the mutator laid in holes a
	// sweep left — below the high-water mark, outside a buffer — rather
	// than in the never-allocated tail (telemetry: the recycled share of
	// allocation).
	FreeListHits int64
	// HoleSwitches counts the times mark/sweep allocation left its current
	// hole for a later one because the next object did not fit.
	HoleSwitches int64
	// Growths counts successful Grow calls (the OOM recovery ladder's
	// grow rung).
	Growths int64
	// MinorCollections counts nursery-only collections (included in
	// Collections).
	MinorCollections int64
	// PromotedWords counts words tenured from the nursery into the old
	// region across all collections.
	PromotedWords int64
	// PromotionFailures counts young objects a collection could not promote
	// for want of old-region room and left in place (pinned, nursery.go).
	PromotionFailures int64
	// SharedAllocs counts allocation requests that touched the shared heap
	// — every Alloc entry plus every TLAB chunk carve. In a real runtime
	// each is a shared-heap lock acquisition; with TLABs enabled the ratio
	// SharedAllocs/Allocations is the amortized O(1/chunk) claim (tlab.go).
	SharedAllocs int64
	// TLABAllocs counts objects bump-allocated from a task-local buffer
	// (no shared-heap interaction); TLABAllocWords is their word total.
	TLABAllocs     int64
	TLABAllocWords int64
	// TLABRefills counts chunk carves; TLABRefillWords the words carved.
	TLABRefills     int64
	TLABRefillWords int64
	// TLABWasteWords counts carved words discarded at retirement (the
	// buffer tail no object fit into); TLABReturnedWords counts tails given
	// back to the region bump pointer instead. Exact accounting invariant
	// once every buffer is retired:
	// TLABRefillWords == TLABAllocWords + TLABWasteWords + TLABReturnedWords.
	TLABWasteWords    int64
	TLABReturnedWords int64
}

// Heap is a garbage-collected heap over a flat word array: a semispace
// copying heap by default, or a mark/sweep heap (see marksweep.go).
type Heap struct {
	Repr code.Repr
	kind GCKind
	mem  []code.Word
	semi int
	// fromOff and toOff are the base mem indexes of the two spaces.
	fromOff, toOff int
	alloc, limit   int
	// forward is the heap's one visit record, for every discipline: an
	// entry is the epoch it was written in above the visited object's home
	// beneath (fwdShift) — the new address of a copy or a promotion, the
	// object's own address for a mark or a pin. An entry counts only while
	// its stamp is fwdEpoch, which End advances after every collection, so
	// the table is never cleared. A young object, and every object of a
	// mark/sweep heap, is indexed by its mem offset; a copying old-region
	// object by its offset into from-space past the young prefix, so the
	// table is prefix + semi words: EnableNurseryShards sizes it with the
	// young areas, Begin for any other layout (New, NewMarkSweep, Grow). Its
	// storage is bookkeeping of the collector, not program memory, and is
	// excluded from all space accounting. Tagged heaps have none: their
	// broken hearts are in the headers.
	forward  []uint64
	fwdEpoch uint64
	inGC     bool
	// objSize (mark/sweep, see marksweep.go) is keyed by block start: an
	// allocated object's size, or minus the size of a gap.
	objSize []int32
	// holes are the gaps the last sweep merged, in address order
	// (mark/sweep): the current hole is [alloc, limit), and nextHole indexes
	// the first one past it.
	holes    []span
	nextHole int
	// top is the mark/sweep bump high-water mark as of the last sweep (Used);
	// occupied counts the old-region words objects and live buffers hold
	// (OccupiedWords).
	top, occupied int
	// debugAccess validates every field access against the mark/sweep
	// allocation map (tests only).
	debugAccess bool
	// poison overwrites freed blocks with PoisonWord during sweeps.
	poison bool
	// verify enables span recording during copying collections so
	// VerifyHeap can check forwarding completeness (see verify.go).
	verify bool
	// spans records every object copied by the most recent collection, in
	// copy order (ascending base). spansValid is true only between End
	// and the next mutator allocation, the window in which the spans tile
	// the active space exactly.
	spans      []span
	spansValid bool
	// young is the generational nursery state (see nursery.go); zero value
	// = no nursery, all fast paths compile to the pre-generational code.
	young nursery
	// oldReserve, during a copying major with the nursery on, is the
	// to-space headroom still owed to uncopied old objects. Promotions may
	// only take what lies beyond it: the from-space used count bounds the
	// words the old copies can ever need, so holding that many back makes an
	// old-object copy overflow impossible no matter how the trace
	// interleaves promotions with old copies. Each old copy repays its own
	// share (owe). Zero outside copying majors.
	oldReserve int
	// tlabs is the task-local allocation buffer state (see tlab.go); zero
	// value = no TLABs, allocation goes through Alloc unchanged.
	tlabs tlabState
	Stats Stats
}

// span is one live object's extent recorded during a verified collection.
type span struct{ base, size int }

// New creates a heap with the given semispace size in words.
func New(repr code.Repr, semiWords int) *Heap {
	h := &Heap{
		Repr:     repr,
		mem:      make([]code.Word, 2*semiWords),
		semi:     semiWords,
		fromOff:  0,
		toOff:    semiWords,
		alloc:    0,
		limit:    semiWords,
		fwdEpoch: 1,
	}
	return h
}

// fwdShift splits a visit entry: the epoch above, the home mem index
// (always far below 2^32) beneath — 64 bits on every platform. A zero entry
// carries epoch 0, which is never current.
const fwdShift = 32

// fwdIndex is the home mem index a visit entry holds.
func fwdIndex(e uint64) int { return int(e & (1<<fwdShift - 1)) }

// stamp records this collection's visit of the object indexed at i, at
// home.
func (h *Heap) stamp(i, home int) { h.forward[i] = h.fwdEpoch<<fwdShift | uint64(home) }

// visited returns the home this collection recorded for the object indexed
// at i, if it visited it.
func (h *Heap) visited(i int) (int, bool) {
	e := h.forward[i]
	return fwdIndex(e), e>>fwdShift == h.fwdEpoch
}

// SemiWords returns the semispace size.
func (h *Heap) SemiWords() int { return h.semi }

// MemSnapshot returns a copy of the heap's entire word array. Tests use it
// to assert that two collection configurations (fast path on and off, say)
// leave bit-identical heaps.
func (h *Heap) MemSnapshot() []code.Word {
	return append([]code.Word(nil), h.mem...)
}

// Used returns the words currently allocated in the active space: on a
// mark/sweep heap, the bump high-water mark, which no sweep lowers.
func (h *Heap) Used() int { return max(h.alloc, h.top) - h.fromOff }

// OccupiedWords returns the words actually holding objects: Used on a
// copying heap; on a mark/sweep heap, the words of its objects (and of its
// live buffers) wherever in the holes they lie. Serving's admission watches
// this figure: Used alone saturates permanently once a mark/sweep region has
// filled, even when sweeps have recycled most of it.
func (h *Heap) OccupiedWords() int {
	if h.kind == MarkSweep {
		return h.occupied
	}
	return h.Used()
}

// ActiveSnapshot returns a copy of the allocated words of the active
// space. On a copying heap right after a full collection this is the
// trace-order-deterministic image of the live heap — the TLAB differential
// suite bit-compares it across configurations that must converge on the
// same layout. (Mark/sweep layouts are history-dependent; compare those
// with gc.LiveSignature instead.)
func (h *Heap) ActiveSnapshot() []code.Word {
	out := make([]code.Word, h.alloc-h.fromOff)
	copy(out, h.mem[h.fromOff:h.alloc])
	return out
}

// Need reports whether allocating n object words (plus a header in tagged
// mode) requires a collection first. With a nursery, a request the nursery
// takes checks only the nursery bump (a collection empties it); oversize
// requests are pre-tenured and check the old region as before.
func (h *Heap) Need(n int) bool {
	total := h.objWords(n)
	if h.young.enabled && total <= h.young.youngWords {
		s := &h.young.shards[h.young.allocShard]
		return s.youngAlloc+total > s.limit
	}
	if h.kind == MarkSweep {
		return h.alloc+total > h.limit && h.laterHole(total) < 0
	}
	return h.alloc+total > h.limit
}

func (h *Heap) objWords(fields int) int {
	if h.Repr == code.ReprTagged {
		return fields + 1
	}
	return fields
}

// Window is a stretch [HP, Limit) of the word array (Words) in which its
// holder lays objects end to end without a call per object: an object of t
// words fits when HP+t <= Limit, starts at HP (its header word first under
// the tagged representation, written by the holder), and moves HP past it
// and Objects up by one. The heap learns of them from Settle. The
// interpreter's dispatch loop is the holder that matters (tasking.step,
// DESIGN.md §15); Alloc and AllocTLAB are holders of one-object windows.
//
// A window is one object long where the heap owes something per object — the
// forced major an object born in the old region of a generational heap owes
// — or the opener asks for that (one); otherwise it is the rest of its
// region: the semispace, a young area, a buffer, a mark/sweep hole. At most
// one window is in use at a time, and none across a collection.
type Window struct {
	HP, Limit int
	// Objects counts what was laid since the last Settle.
	Objects int
	// Sizes is the mark/sweep block-size record (marksweep.go) when the
	// window lies in that heap's old region, nil elsewhere: the holder writes
	// an object's size in words at the object's start as it lays it.
	Sizes []int32
	// start is HP at the last Settle. The window bumps tlab's top when it
	// has one; else region says whose bump pointer: a nursery shard's young
	// area (its index) or the old region's.
	start  int
	tlab   *TLAB
	region int
}

// regionOld is the window region of the old region's bump pointer (a
// nursery shard's is its index).
const regionOld = -1

// Buffered reports whether the window lies in a task-local buffer.
func (w *Window) Buffered() bool { return w.tlab != nil }

// youngFits reports whether a request of total words is served by the
// nursery: there is one, the mutator is asking, and the object is not
// oversize for it.
func (h *Heap) youngFits(total int) bool {
	return h.young.enabled && !h.inGC && total <= h.young.youngWords
}

// OpenWindow opens w on the shared heap for a request of n fields, where
// Alloc would have put the object: the allocation shard's young area, else
// the semispace, or the first mark/sweep hole that takes it. It reports false
// — and counts the shared-heap request, as a failed Alloc always has — when
// that object does not fit; the caller climbs the recovery ladder and Alloc
// builds the typed error for whoever reports it.
func (h *Heap) OpenWindow(w *Window, n int, one bool) bool {
	total := h.objWords(n)
	hp, limit, region := h.alloc, h.limit, regionOld
	var sizes []int32
	switch {
	case h.youngFits(total):
		s := &h.young.shards[h.young.allocShard]
		hp, limit, region = s.youngAlloc, s.limit, h.young.allocShard
	case h.kind == MarkSweep:
		h.holeFits(total)
		hp, limit, sizes = h.alloc, h.limit, h.objSize
		fallthrough
	default:
		one = one || h.young.enabled // an object born old owes the next cycle a major
	}
	if hp+total > limit {
		h.Stats.SharedAllocs++
		return false
	}
	if one {
		limit = hp + total
	}
	*w = Window{HP: hp, Limit: limit, Sizes: sizes, start: hp, region: region}
	h.spansValid = false
	return true
}

// Settle books what the holder laid in w since the last Settle — the bump
// pointer of the window's region, the allocation counters — and returns the
// objects and words (headers included) for the holder's own accounts. The
// window stays open where it is. The heap's state is exact after every
// Settle, so a holder settles before anything else looks at the heap.
func (h *Heap) Settle(w *Window) (objects, words int64) {
	objects, words = int64(w.Objects), int64(w.HP-w.start)
	switch {
	case w.tlab != nil:
		w.tlab.top = w.HP
		h.Stats.TLABAllocs += objects
		h.Stats.TLABAllocWords += words
	case w.region == regionOld:
		h.alloc = w.HP
		h.Stats.SharedAllocs += objects
		if w.Sizes != nil {
			h.settleHole(w.start, objects, words)
		}
	default:
		h.young.shards[w.region].youngAlloc = w.HP
		h.Stats.SharedAllocs += objects
	}
	h.Stats.Allocations += objects
	h.Stats.WordsAllocated += words
	w.start, w.Objects = w.HP, 0
	return objects, words
}

// lay puts one n-field object at the head of w, as the dispatch loop does
// for itself, and settles: fields uninitialized, the header written in
// tagged mode.
func (h *Heap) lay(w *Window, n int) code.Word {
	base := w.HP
	if h.Repr == code.ReprTagged {
		h.mem[base] = code.Word(n)<<1 | 1 // odd header: field count
	}
	if w.Sizes != nil {
		w.Sizes[base] = int32(h.objWords(n))
	}
	w.HP += h.objWords(n)
	w.Objects++
	h.Settle(w)
	return code.EncodePtr(h.Repr, code.HeapBase+base)
}

// Alloc allocates an object with n fields and returns its encoded pointer,
// or a *OutOfMemoryError when the space is exhausted. Exhaustion is an
// ordinary return value — not a panic — so callers can climb a recovery
// ladder: collect, retry, grow, and only then fault. Fields are
// uninitialized; in tagged mode the header is written. This is the API for
// callers outside the interpreter (tests, experiments, the scheduler
// materializing an exhaustion it is about to report); the interpreter holds
// windows.
func (h *Heap) Alloc(n int) (code.Word, error) {
	var w Window
	if !h.OpenWindow(&w, n, true) {
		return 0, h.oomError(h.objWords(n))
	}
	return h.lay(&w, n), nil
}

// MustAlloc is Alloc for callers that have already ensured space (Need
// returned false, possibly after a collection): it panics on exhaustion.
func (h *Heap) MustAlloc(n int) code.Word {
	ptr, err := h.Alloc(n)
	if err != nil {
		panic(err)
	}
	return ptr
}

// OutOfMemoryError reports heap exhaustion that a collection did not cure.
type OutOfMemoryError struct {
	// Discipline names the heap discipline that ran out ("copying" or
	// "mark/sweep"), so both variants report uniformly.
	Discipline string
	Requested  int
	// Free is the contiguous space still available: the bump region, or
	// the current mark/sweep hole.
	Free int
	// HoleWords is the rest of a mark/sweep heap's free words: later holes
	// too short for the request, and what allocation has passed over since
	// the last sweep. Nonzero means the heap had room in aggregate but not
	// in one piece it could reach — without this field the "0 free"
	// diagnostic was misleading.
	HoleWords int
}

// Error implements the error interface. The format is uniform across both
// disciplines: "heap exhausted (<discipline>): need N words, M contiguous
// free", with the words free in other holes appended when nonzero.
func (e *OutOfMemoryError) Error() string {
	s := fmt.Sprintf("heap exhausted (%s): need %d words, %d contiguous free",
		e.Discipline, e.Requested, e.Free)
	if e.HoleWords > 0 {
		s += fmt.Sprintf(" (%d more words free in other holes)", e.HoleWords)
	}
	return s
}

// oomError builds the typed exhaustion failure for a request of total
// words, capturing the current discipline's free-space picture.
func (h *Heap) oomError(total int) *OutOfMemoryError {
	if h.youngFits(total) {
		s := &h.young.shards[h.young.allocShard]
		return &OutOfMemoryError{Discipline: "nursery", Requested: total,
			Free: s.limit - s.youngAlloc}
	}
	e := &OutOfMemoryError{Discipline: "copying", Requested: total, Free: h.limit - h.alloc}
	if h.kind == MarkSweep {
		e.Discipline = "mark/sweep"
		e.HoleWords = h.semi - h.occupied - e.Free
	}
	return e
}

// addrIndex converts an encoded pointer to a mem index.
func (h *Heap) addrIndex(ptr code.Word) int {
	return code.DecodePtr(h.Repr, ptr) - code.HeapBase
}

// fieldBase returns the mem index of field 0.
func (h *Heap) fieldBase(ptr code.Word) int {
	base := h.addrIndex(ptr)
	if h.Repr == code.ReprTagged {
		return base + 1
	}
	return base
}

// Words exposes the word array to the interpreter's dispatch loop, which
// reads and writes fields without a call per access: field i of the object at
// address a is mem[a-code.HeapBase+i], one word further under the tagged
// representation (the header). Grow replaces the array, so it is fetched
// again after anything that may have grown the heap. checked reports
// SetDebugAccess: such a heap wants every load validated through Field.
func (h *Heap) Words() (mem []code.Word, checked bool) { return h.mem, h.debugAccess }

// Field reads field i of an object.
func (h *Heap) Field(ptr code.Word, i int) code.Word {
	if h.debugAccess {
		h.checkAccess(ptr, i)
	}
	return h.mem[h.fieldBase(ptr)+i]
}

// SetField writes field i of an object.
func (h *Heap) SetField(ptr code.Word, i int, v code.Word) {
	h.mem[h.fieldBase(ptr)+i] = v
}

// ObjLen returns a tagged object's field count from its header.
func (h *Heap) ObjLen(ptr code.Word) int {
	if h.Repr != code.ReprTagged {
		panic("ObjLen: tag-free objects have no header")
	}
	return int(h.mem[h.addrIndex(ptr)] >> 1)
}

// ---------------------------------------------------------------------------
// Collection support.
// ---------------------------------------------------------------------------

// ScanToSpaceBatched performs a Cheney scan during a tagged-mode collection
// with one callback per object: scan receives the object's field words as a
// slice aliasing to-space and rewrites traced values in place (copies it
// makes grow the frontier). Object extents come from headers; only tagged
// heaps can do this without compiler metadata. The backing array never moves
// during a collection, so the slice stays valid across copies.
func (h *Heap) ScanToSpaceBatched(scan func(fields []code.Word)) {
	if h.Repr != code.ReprTagged {
		panic("ScanToSpaceBatched: requires tagged headers")
	}
	if !h.inGC {
		panic("ScanToSpaceBatched: no collection in progress")
	}
	p := h.toOff
	for p < h.alloc {
		n := int(h.mem[p] >> 1)
		scan(h.mem[p+1 : p+1+n])
		p += 1 + n
	}
}

// Grow extends the heap to newWords words per semispace (copying) or total
// (mark/sweep) without moving any object: every live pointer stays valid.
// It is the recovery ladder's second rung, taken only when a collection did
// not free enough space. Growing is refused during a collection and when
// newWords does not exceed the current size.
//
// Copying layout after a grow: the live from-space keeps its base offset,
// and the two (larger) spaces are laid out back-to-back above it. When the
// old from-space sat above the old to-space, the words below it become a
// permanently dead prefix — at most one pre-grow semispace per grow, a
// geometrically-shrinking overhead under any growth factor > 1 — which
// keeps growth O(live) with zero relocation.
func (h *Heap) Grow(newWords int) error {
	if h.inGC {
		return fmt.Errorf("heap: Grow during a collection")
	}
	if h.tlabs.live > 0 {
		return fmt.Errorf("heap: Grow with %d live TLABs (retire them first)", h.tlabs.live)
	}
	if newWords <= h.semi {
		return fmt.Errorf("heap: Grow(%d) does not exceed the current %d words", newWords, h.semi)
	}
	if h.kind == MarkSweep {
		// The old region sits at [fromOff, fromOff+semi); with a nursery,
		// fromOff is the fixed young prefix, which the grow preserves
		// verbatim (young objects never move).
		mem := make([]code.Word, h.fromOff+newWords)
		copy(mem, h.mem)
		objSize := make([]int32, len(mem))
		copy(objSize, h.objSize)
		h.mem, h.objSize = mem, objSize
		h.growHoles(newWords)
	} else {
		mem := make([]code.Word, h.fromOff+2*newWords)
		copy(mem[:h.young.prefixWords()], h.mem[:h.young.prefixWords()])
		copy(mem[h.fromOff:], h.mem[h.fromOff:h.alloc])
		h.mem = mem
		h.toOff = h.fromOff + newWords
		h.limit = h.fromOff + newWords
	}
	h.semi = newWords
	h.spansValid = false
	h.Stats.Growths++
	return nil
}

package heap

import (
	"fmt"

	"tagfree/internal/code"
)

// Task-local allocation buffers (TLABs). The tasking runtime shares one
// heap among many tasks, which serializes every allocation through the
// shared bump pointer — in a real runtime, through the shared-heap lock.
// A TLAB removes that: each task carves a private chunk from the heap in
// one shared acquisition and then bump-allocates inside it with a pure
// bounds-check-and-bump, touching the shared heap again only to refill.
//
// Where chunks come from mirrors the allocation path they replace:
//
//   - Nursery enabled: chunks are carved from the allocation shard's young
//     area, so TLAB objects are born young and promoted by the ordinary
//     minor/major rules. Objects too large for the nursery bypass TLABs
//     exactly as they bypass the young fast path (pre-tenured via Alloc).
//   - Copying, no nursery: chunks come from the from-space bump region.
//   - Mark/sweep: chunks come from the current hole, or the first later one
//     that takes the object (marksweep.go), and each object laid in one
//     records its size as it would in the shared region.
//
// Retirement keeps the heap's tiling invariants intact. A buffer retired
// with its tail still at the region's bump pointer gives the tail back
// (TLABReturnedWords); otherwise the tail is dead: accounted as
// TLABWasteWords and, under mark/sweep, recorded as a gap, which the next
// sweep merges into a hole, so the sweep and the verifier still see a
// perfect object/gap tiling. Copying and nursery waste needs no bookkeeping
// — the words are simply never traced and die at the next flip.
//
// Every collection requires the TLABs of the area it collects retired
// first (Begin panics otherwise): a copying flip or a nursery evacuation
// would otherwise leave buffers bumping into dead space.

// TLAB is one task's private bump region. The zero value is an empty,
// never-carved buffer: AllocTLAB fails on it and RetireTLAB ignores it.
type TLAB struct {
	// start, top and limit are absolute mem indexes: objects are bumped at
	// top within [start, limit); start is kept for capacity accounting.
	start, top, limit int
	// young marks a buffer carved from a nursery area; shard is
	// the nursery shard it was carved from (the allocation shard at carve
	// time; 0 on an unsharded heap, meaningless when !young).
	young bool
	shard int
	// active marks a carved, not-yet-retired buffer.
	active bool
}

// Cap returns the buffer's carved capacity in words.
func (t *TLAB) Cap() int { return t.limit - t.start }

// Remaining returns the unused words left in the buffer.
func (t *TLAB) Remaining() int { return t.limit - t.top }

// Active reports whether the buffer is carved and not yet retired.
func (t *TLAB) Active() bool { return t.active }

// tlabState is the heap-side TLAB configuration and bookkeeping.
type tlabState struct {
	enabled bool
	// chunk is the default carve size in words (-tlab N).
	chunk int
	// live counts carved, un-retired buffers; collections and grows refuse
	// to run while any exist. liveYoung counts the young buffers per
	// nursery shard: a shard minor only requires its own shard's young
	// buffers retired, so other shards' mutators keep their buffers live.
	live      int
	liveYoung []int
}

// liveYoungIn returns the live young-buffer count for one nursery shard.
func (t *tlabState) liveYoungIn(shard int) int {
	if shard >= len(t.liveYoung) {
		return 0
	}
	return t.liveYoung[shard]
}

// noteYoungCarve adjusts the per-shard young live count by delta.
func (t *tlabState) noteYoungCarve(shard, delta int) {
	for shard >= len(t.liveYoung) {
		t.liveYoung = append(t.liveYoung, 0)
	}
	t.liveYoung[shard] += delta
}

// EnableTLABs switches the heap into TLAB mode with the given default
// chunk size in words. It only arms the carve API — layout is untouched —
// so it may be called at any point outside a collection.
func (h *Heap) EnableTLABs(chunkWords int) {
	if chunkWords <= 0 {
		panic("EnableTLABs: chunk size must be positive")
	}
	if h.inGC {
		panic("EnableTLABs: collection in progress")
	}
	h.tlabs.enabled = true
	h.tlabs.chunk = chunkWords
}

// TLABsEnabled reports whether the heap is in TLAB mode.
func (h *Heap) TLABsEnabled() bool { return h.tlabs.enabled }

// LiveTLABs returns the number of carved, un-retired buffers.
func (h *Heap) LiveTLABs() int { return h.tlabs.live }

// TLABEligible reports whether an n-field object may be served from a
// TLAB: it must fit the configured chunk, and — with a nursery — be an
// object the nursery takes, since nursery chunks are carved young and
// oversize objects are pre-tenured exactly as on the non-TLAB path.
func (h *Heap) TLABEligible(n int) bool {
	if !h.tlabs.enabled {
		return false
	}
	total := h.objWords(n)
	if total > h.tlabs.chunk {
		return false
	}
	if h.young.enabled && total > h.young.youngWords {
		return false
	}
	return true
}

// TLABRoom reports whether the buffer can take an n-field object without
// a refill.
func (h *Heap) TLABRoom(t *TLAB, n int) bool {
	return t.active && h.objWords(n) <= t.limit-t.top
}

// CarveTLAB carves a fresh buffer able to hold at least one n-field
// object, preferring the configured chunk size but clamping to the space
// the source region actually has (so a carve fails only when the object
// itself does not fit — the property the recovery ladder's rescue check
// relies on). Reports false when the region cannot take the object; the
// caller then falls back to Alloc and, on failure, the OOM ladder.
func (h *Heap) CarveTLAB(n int) (TLAB, bool) {
	if !h.tlabs.enabled {
		panic("CarveTLAB: TLABs not enabled")
	}
	if h.inGC {
		panic("CarveTLAB: collection in progress")
	}
	if !h.TLABEligible(n) {
		return TLAB{}, false
	}
	total := h.objWords(n)
	size := h.tlabs.chunk
	var base int
	if h.young.enabled {
		y := &h.young
		s := &y.shards[y.allocShard]
		avail := s.limit - s.youngAlloc
		if size > avail {
			size = avail
		}
		if size < total {
			return TLAB{}, false
		}
		base = s.youngAlloc
		s.youngAlloc += size
	} else {
		if h.kind == MarkSweep && !h.holeFits(total) {
			return TLAB{}, false
		}
		avail := h.limit - h.alloc
		if size > avail {
			size = avail
		}
		if size < total {
			return TLAB{}, false
		}
		if h.kind == MarkSweep {
			base = h.bumpHole(size)
		} else {
			base = h.alloc
			h.alloc += size
		}
	}
	h.spansValid = false
	h.tlabs.live++
	if h.young.enabled {
		h.tlabs.noteYoungCarve(h.young.allocShard, 1)
	}
	h.Stats.SharedAllocs++
	h.Stats.TLABRefills++
	h.Stats.TLABRefillWords += int64(size)
	return TLAB{start: base, top: base, limit: base + size,
		young: h.young.enabled, shard: h.young.allocShard, active: true}, true
}

// OpenTLABWindow opens w inside the buffer for a request of n fields, or
// reports false when the buffer cannot take the object (empty, retired,
// or full — the caller refills via CarveTLAB). This is the allocation fast
// path: no shared-heap state is consulted, and a mark/sweep buffer's window
// carries the block-size record its objects write their sizes to.
func (h *Heap) OpenTLABWindow(w *Window, t *TLAB, n int, one bool) bool {
	total := h.objWords(n)
	if !t.active || total > t.limit-t.top {
		return false
	}
	if h.inGC {
		panic("OpenTLABWindow: collection in progress")
	}
	*w = Window{HP: t.top, Limit: t.limit, start: t.top, tlab: t}
	if !t.young && h.kind == MarkSweep {
		w.Sizes = h.objSize
	}
	if one {
		w.Limit = w.HP + total
	}
	h.spansValid = false
	return true
}

// AllocTLAB allocates one n-field object inside the buffer, or reports
// false when the buffer cannot take it: Alloc's counterpart for callers
// outside the interpreter.
func (h *Heap) AllocTLAB(t *TLAB, n int) (code.Word, bool) {
	var w Window
	if !h.OpenTLABWindow(&w, t, n, true) {
		return 0, false
	}
	return h.lay(&w, n), true
}

// RetireTLAB returns a buffer to the heap, leaving a tiling the sweep,
// the verifier and the next collection all accept. The unused tail is
// given back to the region's bump pointer when the buffer still sits at
// its frontier (waste 0), or accounted as waste: a gap under mark/sweep,
// dead words under copying and in the nursery. Retiring an empty or already-retired buffer is a no-op.
// Returns the (waste, returned) word counts for per-task accounting.
func (h *Heap) RetireTLAB(t *TLAB) (waste, returned int) {
	if !t.active {
		return 0, 0
	}
	if h.inGC {
		panic("RetireTLAB: collection in progress")
	}
	unused := t.limit - t.top
	switch {
	case unused == 0:
		// Fully used: nothing to give back or account.
	case t.young && h.young.shards[t.shard].youngAlloc == t.limit:
		h.young.shards[t.shard].youngAlloc = t.top
		returned = unused
	case !t.young && h.alloc == t.limit:
		h.alloc = t.top
		returned = unused
	default:
		waste = unused
		if !t.young && h.kind == MarkSweep {
			h.objSize[t.top] = int32(-unused)
		}
	}
	if !t.young && h.kind == MarkSweep {
		h.occupied -= unused
		h.gapAtAlloc() // a tail given back is the current hole's again
	}
	h.Stats.TLABWasteWords += int64(waste)
	h.Stats.TLABReturnedWords += int64(returned)
	h.tlabs.live--
	if t.young {
		h.tlabs.noteYoungCarve(t.shard, -1)
	}
	*t = TLAB{}
	return waste, returned
}

// VerifyTLABs checks the TLAB bookkeeping invariant after a collection: no
// buffer of the collected space may survive it un-retired. A single-shard
// minor collects one shard's nursery and leaves every other shard's tasks
// running with their buffers live, so only that shard's young buffers are
// held to it; any other collection demands zero live buffers.
func (h *Heap) VerifyTLABs() []error {
	if s := h.young.minorShard; h.young.enabled && s >= 0 {
		if n := h.tlabs.liveYoungIn(s); n != 0 {
			return []error{fmt.Errorf("heap verify: %d young TLABs of shard %d still live after its minor collection", n, s)}
		}
		return nil
	}
	if h.tlabs.live != 0 {
		return []error{fmt.Errorf("heap verify: %d TLABs still live after a collection", h.tlabs.live)}
	}
	return nil
}

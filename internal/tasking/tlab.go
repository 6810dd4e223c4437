// The allocation-buffer driver (Group.TLABWords > 0): a private buffer per
// task, carved from the shared heap a chunk at a time. It is called from:
//
//   - round start: setupTLABs (RunInit, runUntilSuspended), which also hands
//     the collector retireAllTLABs to run before every collection
//   - task done: retireTaskTLAB (runUntilSuspended, RunInit, faultTask)
//   - all done: Telem.FinalizeTLAB (Run)
//   - wave gathered: a shard's minor retires that shard's buffers itself
//     (serviceShardMinors)
//   - the gate: openBuffered before the shared heap (alloc), the fault plan's
//     refill test (alloc), the fast/slow split (settle), NeedTLAB (allocBlocked)

package tasking

import (
	"tagfree/internal/gc"
	"tagfree/internal/heap"
)

// TLABStats is one task's allocation-buffer accounting over its lifetime.
// FastAllocs served from the private buffer without touching the shared
// heap; SlowAllocs went through Heap.Alloc (oversize, or a failed carve
// rescued by a mark/sweep free list); Refills carved RefillWords from the
// shared heap, of which WasteWords died unused and ReturnedWords were
// given back at retirement.
type TLABStats struct {
	FastAllocs    int64
	SlowAllocs    int64
	Refills       int64
	RefillWords   int64
	WasteWords    int64
	ReturnedWords int64
}

// setupTLABs lazily arms the heap's TLAB mode and the pre-collection
// retirement hook, ahead of any hook the caller set (which then sees a fully
// tiled heap too). Idempotent; called from every scheduling entry point so
// callers may set TLABWords any time between construction and first run.
func (g *Group) setupTLABs() {
	if g.TLABWords > 0 && !g.Heap.TLABsEnabled() {
		g.Heap.EnableTLABs(g.TLABWords)
		next := g.Col.PreCollect
		g.Col.PreCollect = func(tasks []gc.TaskRoots) {
			g.retireAllTLABs(tasks)
			if next != nil {
				next(tasks)
			}
		}
	}
}

// retireTaskTLAB retires one task's buffer (no-op when inactive), folding
// the waste/give-back words into the task's accounting.
func (g *Group) retireTaskTLAB(t *Task) {
	if !t.tlab.Active() {
		return
	}
	waste, returned := g.Heap.RetireTLAB(&t.tlab)
	t.TLAB.WasteWords += int64(waste)
	t.TLAB.ReturnedWords += int64(returned)
}

// retireAllTLABs retires every live buffer in the group; the collector
// runs it (via PreCollect) before any collection so the heap it scans is
// fully tiled.
func (g *Group) retireAllTLABs([]gc.TaskRoots) {
	for _, t := range g.runq {
		g.retireTaskTLAB(t)
	}
	if g.initTask != nil {
		g.retireTaskTLAB(g.initTask)
	}
}

// openBuffered opens w, the allocation window a request of n fields is
// granted, in the task's private buffer (TLABs armed): the rest of the buffer
// — no shared-heap acquisition — refilled via one chunked carve when it is
// full. Oversize requests, and carve failures (the region cannot take even
// the clamped chunk), are reported false and fall back to a window on the
// shared heap, whose failure feeds the ordinary recovery ladder. one asks for
// a window of exactly the one object.
func (g *Group) openBuffered(w *heap.Window, t *Task, n int, one bool) bool {
	h := g.Heap
	if !h.TLABEligible(n) {
		return false
	}
	if h.OpenTLABWindow(w, &t.tlab, n, one) {
		return true
	}
	g.retireTaskTLAB(t)
	tl, ok := h.CarveTLAB(n)
	if !ok {
		return false
	}
	t.tlab = tl
	t.TLAB.Refills++
	t.TLAB.RefillWords += int64(tl.Cap())
	if !h.OpenTLABWindow(w, &t.tlab, n, one) {
		panic("tasking: allocation failed inside a fresh TLAB carve")
	}
	return true
}

// The concurrent-marking driver (Group.GCConcurrent, mark/sweep heaps without
// a nursery): the scheduler's side of gc/concurrent.go. It is called from:
//
//   - round start: concAdvance, when no wave is up
//   - the turn: slice gives a lone task no long slices, so marking gets its own
//   - wave gathered: concPause, before the wave becomes a collection
//   - all done: concRunEnd (all three from runUntilSuspended)
//   - after a collection: collected keeps concLastEnd
//   - hooks: the store barrier's ConcBarrier (storeBarrier; step's stHook)

package tasking

import "tagfree/internal/gc"

// concState is the concurrent cycle's scheduler-side state, embedded in Group.
type concState struct {
	// concPhase says which suspend waves belong to the cycle's pauses rather
	// than a collection.
	concPhase int
	// concLastEnd is heap occupancy right after the last collection of any
	// kind (collected). The trigger requires real allocation growth beyond
	// it, so a mostly-live heap that stays above the watermark does not
	// re-cycle every round reclaiming nothing.
	concLastEnd int
}

// Concurrent-cycle scheduler phases. The marking engine (gc/concurrent.go)
// owns the gray queue; the scheduler owns when its pauses may run: frame
// maps exist only at call/alloc instructions, so the root snapshot and the
// final re-scan ride the same Rgc suspend wave a stop-the-world collection
// uses, while mark slices — which touch no stacks — run between rounds.
const (
	concIdle          = iota
	concStartPending  // wave raised to snapshot roots and start the cycle
	concMarking       // cycle active; one mark slice per scheduling round
	concFinishPending // gray queue drained; wave raised for the final pause
)

// concAdvance drives the concurrent collector between task quanta: it
// raises the start wave when occupancy crosses the watermark, runs one
// marking slice per round while the cycle is active, raises the finish
// wave once the gray queue drains, and aborts to an ordinary
// stop-the-world collection when the slice watchdog trips. Callers
// guarantee g.rgc == 0.
func (g *Group) concAdvance() {
	switch g.concPhase {
	case concIdle:
		if g.Col.ConcActive() {
			return // cycle mid-flight with no wave pending (marking phase)
		}
		pct := g.ConcTriggerPct
		if pct <= 0 {
			pct = 75
		}
		// Occupancy, not Used(): the mark/sweep bump pointer saturates
		// permanently once the region fills, while freed storage parks on
		// the free lists. Used minus free-list words is what is live+floating.
		occ := g.Heap.OccupiedWords()
		if 100*occ < pct*g.Heap.SemiWords() {
			return
		}
		// Hysteresis: a heap whose live set sits above the watermark would
		// otherwise re-cycle every round reclaiming nothing. Require real
		// allocation since the last collection before cycling again.
		if occ < g.concLastEnd+g.Heap.SemiWords()/8 {
			return
		}
		g.concPhase = concStartPending
		g.rgc = 1
	case concMarking:
		if !g.Col.ConcActive() {
			// The write barrier aborted the cycle mid-quantum (a non-ground
			// store it cannot type). Raise an ordinary stop-the-world wave to
			// reclaim — the fallback the abort rung promises.
			g.concPhase = concIdle
			g.rgc = 1
			return
		}
		switch g.Col.ConcSlice() {
		case gc.ConcDrained:
			g.concPhase = concFinishPending
			g.rgc = 1
		case gc.ConcOverBudget:
			// The watchdog rung: the gray queue refused to drain within the
			// slice budget (a store-heavy mutator regrowing it faster than
			// marking retires it). Abort the cycle and raise an ordinary
			// stop-the-world wave, which reclaims with the serial collector.
			g.Col.ConcAbort()
			g.concPhase = concIdle
			g.rgc = 1
		}
	}
}

// concPause services a suspend wave that belongs to the concurrent cycle
// (start or finish) rather than a collection: every live task is at a safe
// point, so the stacks can be scanned. It reports whether the wave was
// consumed here — tasks resumed, scheduling continues. A wave carrying a
// genuine allocation failure (a SuspendedAlloc task that asked for memory,
// including torture and injections — not one merely parked by the raised
// Rgc under SuspendAtAllocs) returns false and hands over to the
// stop-the-world path, whose CollectFull aborts any in-flight cycle
// automatically.
func (g *Group) concPause() bool {
	if g.concPhase != concStartPending && g.concPhase != concFinishPending {
		// A genuine collection wave (allocation failure, forced major). The
		// stop-the-world collect aborts any cycle still marking, so the
		// scheduler phase resets with it.
		g.concPhase = concIdle
		return false
	}
	live := g.pendingTasks()
	for _, t := range live {
		if t.Status == SuspendedAlloc && !t.parkedByRgc {
			// An allocation failure shares the wave: memory is needed NOW,
			// and only a full collection (with the rescue ladder behind it)
			// guarantees it. Let collectSuspended take over.
			g.concPhase = concIdle
			return false
		}
	}
	g.gathered()
	if g.concPhase == concStartPending {
		g.Col.ConcStart(g.rootSet(live), g.Globals)
		g.concPhase = concMarking
	} else {
		g.Col.ConcFinish(g.rootSet(live), g.Globals)
		g.collected()
		g.concPhase = concIdle
	}
	g.rgc = 0
	resume(live)
	return true
}

// concRunEnd closes out concurrent state when the last task finishes: a
// cycle still marking (or about to finish) completes over the globals
// alone — the sweep, the telemetry record and the verifier all still run —
// and a wave that never gathered is stood down.
func (g *Group) concRunEnd() {
	if g.Col.ConcActive() {
		g.Col.ConcFinish(nil, g.Globals)
		g.collected()
	}
	g.concPhase = concIdle
	g.rgc = 0
}

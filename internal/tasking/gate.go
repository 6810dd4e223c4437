// The gate and the ladder: what happens at an allocation the dispatch loop
// cannot serve from its window. alloc is the gate — the allocation safe point:
// it grants a window, or parks the task for the wave that is up, or raises one
// (emergency) — and settle books what the loop laid in a window. The recovery
// ladder is what a failed allocation climbs once its wave has been serviced:
// retry, the generational rungs, growth, and a fault of that one task
// (rescueAlloc; the scheduler's collectSuspended climbs it per blocked task).
// The two per-task budgets are judged at the same safe points and are stated
// here.

package tasking

import (
	"fmt"

	"tagfree/internal/code"
	"tagfree/internal/heap"
)

// alloc is the allocation gate: the allocating instruction at the task's pc
// needs k.need fields and the window is too short for them — the safe point
// where a collection can happen. The gate either grants a window (true: the
// instruction runs again and lays its object there) or suspends or faults
// the task (false: the instruction runs again when the task resumes).
//
// What must be judged per allocation is judged here, and holds for the whole
// window granted: a window is one object long when an allocation-word budget
// is set, a fault plan is armed or the shared heap is opened with buffers
// armed (and where the heap needs it, heap.Window), so the next allocation
// comes back; otherwise it is the rest of its region, and nothing the gate
// checks can change before the slice ends — only an allocation that suspends
// its own task, which ends the slice, raises a wave, and a step budget is
// spent only where step closes the window.
func (g *Group) alloc(t *Task, k *sliceConsts) bool {
	g.gates++
	n := k.need
	one := g.BudgetAllocWords > 0
	if g.BudgetSteps > 0 || g.BudgetAllocWords > 0 {
		// Allocation sites are the other safe point: fault the task before
		// the request touches the heap so an over-quota task cannot trigger
		// collections on its siblings' behalf.
		if g.spent(t, n) {
			g.faultTask(t, FaultBudget, n, g.overBudget(t, n))
			return false
		}
	}
	if g.Policy == SuspendAtAllocs && g.waved(t) {
		// Another task exhausted the heap (or this task's shard has a
		// minor pending); wait here and retry this allocation after the
		// wave.
		return g.park(t, n)
	}
	if f := g.Col.Faults; f != nil {
		one = true
		if !t.allocRetry {
			// Fault injection runs before the real allocation and rides the
			// same suspend/collect path a genuine exhaustion would, so injected
			// failures exercise the full ladder. allocRetry guards the
			// post-collection retry: without it, torture (and FailEvery=1)
			// would re-suspend the same allocation forever.
			if f.Torture {
				if g.rgc == 0 {
					g.Col.Telem.Resilience.TortureCollections++
				}
				g.rgc = 1
				return g.park(t, n)
			}
			// A RefillOnly plan targets the moment a TLAB chunk would be carved
			// from the shared heap; every other attempt passes through untouched.
			refill := g.TLABWords > 0 && g.Heap.TLABEligible(n) && !g.Heap.TLABRoom(&t.tlab, n)
			if f.FailAllocAt(refill) {
				g.Col.Telem.Resilience.InjectedOOMs++
				g.emergency(t)
				return g.park(t, n)
			}
		}
	}
	// With buffers armed the shared heap takes only what no buffer can — an
	// oversize object, a failed carve — and one of it: the next object may fit
	// a buffer again.
	buffers := g.TLABWords > 0
	if !(buffers && g.openBuffered(&k.win, t, n, one)) && !g.Heap.OpenWindow(&k.win, n, one || buffers) {
		if g.sharded && !g.waved(t) &&
			!g.exposed[t.shard] && g.Col.MinorEligible() && n <= g.Heap.YoungWords() {
			// A nursery-sized request failed in an unexposed, minor-eligible
			// shard: raise only that shard's wave. Its siblings in other
			// shards keep running while the shard collects alone;
			// serviceShardMinors escalates to the global ladder if the shard
			// minor is not enough.
			g.rgcShard[t.shard] = 1
			return g.park(t, n)
		}
		// Exhaustion is the ladder's first rung: raise Rgc and suspend for
		// an emergency collection; collectSuspended climbs the rest (retry,
		// grow, fault — oomCause builds the typed error for the last).
		g.emergency(t)
		return g.park(t, n)
	}
	if g.Heap.NurseryEnabled() && !g.Heap.InYoung(code.Word(code.HeapBase+k.win.HP)) {
		// Objects too large for the nursery are born old; their stores
		// never ran the write barrier, so force the next cycle major.
		g.Col.NoteTenuredAlloc()
	}
	return true
}

// emergency raises Rgc for a task whose allocation failed — genuinely, by
// injection, or because its shard's minor made no room — and marks the task
// as climbing the ladder. A wave already up is joined, not counted again.
func (g *Group) emergency(t *Task) {
	if g.rgc == 0 {
		g.Col.Telem.Resilience.EmergencyCollections++
	}
	g.rgc = 1
	t.allocEmergency = true
}

// park suspends a task at the allocation of n fields the gate is judging, until
// the coming collection, marking the retry so fault injection skips it. The
// attempt compared Rgc if that is where the policy compares it (an allocation
// that goes ahead is counted by settle instead).
func (g *Group) park(t *Task, n int) bool {
	if g.Policy == SuspendAtAllocs {
		g.Stats.RgcChecks++
	}
	t.Status = SuspendedAlloc
	t.pendingAlloc = n
	t.allocRetry = true
	return false
}

// settle books the objects the dispatch loop laid in its window since it was
// last left: the heap's counters and bump pointer (heap.Settle), and the
// task's — one Rgc comparison per object where allocation is the policy's
// suspension point, as calls settle theirs when the slice ends.
func (g *Group) settle(t *Task, w *heap.Window) {
	buffered := w.Buffered()
	objs, words := g.Heap.Settle(w)
	t.Allocations += objs
	t.AllocWords += words
	if g.Prog.Repr == code.ReprTagged {
		t.AllocWords -= objs // a header is not a field
	}
	t.allocRetry = false
	if buffered {
		t.TLAB.FastAllocs += objs
	} else if g.TLABWords > 0 {
		t.TLAB.SlowAllocs += objs
	}
	if g.Policy == SuspendAtAllocs {
		g.Stats.RgcChecks += objs
	}
}

// rescueAlloc climbs the post-collection rungs of the ladder for a pending
// allocation of n fields: if the collection freed enough, done; otherwise
// escalate through the generational rungs (a full collection after a minor,
// another after every growth while survivors stay pinned in the nursery),
// and grow the heap by GrowFactor per attempt up to the MaxHeapWords ceiling.
// live is the suspended-task set whose stacks root the escalation
// collections. On a buffered heap Need judges the retry as it runs: a carve
// clamped to the region, or to the first mark/sweep hole that takes the
// object, succeeds whenever the object itself fits.
func (g *Group) rescueAlloc(live []*Task, n int) bool {
	nursery := g.Heap.NurseryEnabled()
	if nursery && g.Heap.Need(n) && g.Col.LastCollectionMinor() {
		// The triggering collection may have been minor; a full collection
		// reclaims old-region garbage the minor cycle never looked at.
		g.fullCollect(live)
	}
	for g.Heap.Need(n) {
		if nursery && g.Heap.YoungUsed() > 0 {
			// Survivors the old region had no room for stay pinned in the
			// nursery; a full collection promotes them into whatever the last
			// collection or growth (which extends only the old region) freed.
			g.fullCollect(live)
			if !g.Heap.Need(n) {
				break
			}
		}
		if !g.grow() {
			return false
		}
	}
	return true
}

// grow is the ladder's growth rung: the heap grown once by GrowFactor, as far
// as the MaxHeapWords ceiling allows.
func (g *Group) grow() bool {
	if g.GrowFactor <= 1 {
		return false
	}
	cur := g.Heap.SemiWords()
	next := int(float64(cur) * g.GrowFactor)
	if next <= cur {
		next = cur + 1
	}
	if g.MaxHeapWords > 0 && next > g.MaxHeapWords {
		next = g.MaxHeapWords
	}
	if next <= cur {
		return false // ceiling reached
	}
	if err := g.Heap.Grow(next); err != nil {
		return false
	}
	g.Col.Telem.Resilience.HeapGrowths++
	return true
}

// oomCause materializes the typed exhaustion error for a pending
// allocation the ladder could not satisfy.
func (g *Group) oomCause(n int) error {
	if _, err := g.Heap.Alloc(n); err != nil {
		return err
	}
	return fmt.Errorf("allocation of %d fields failed transiently", n)
}

// noteLadderOutcome resolves one task's recovery-ladder climb: recovered
// (the retry will succeed) or exhausted (the task is about to fault).
// Only counted for tasks whose suspension was a failed allocation —
// emergency climbs — not for siblings parked by Rgc or torture.
func (g *Group) noteLadderOutcome(t *Task, ok bool) {
	if !t.allocEmergency {
		return
	}
	t.allocEmergency = false
	if ok {
		g.Col.Telem.Resilience.LadderRecovered++
	} else {
		g.Col.Telem.Resilience.LadderExhausted++
	}
}

// stepsSpent and wordsSpent are the two per-task budgets, each stated once.
// extraAlloc is the field-word size of an allocation about to be requested
// (0 at call dispatch).
func (g *Group) stepsSpent(t *Task) bool {
	return g.BudgetSteps > 0 && t.Steps > g.BudgetSteps
}

func (g *Group) wordsSpent(t *Task, extraAlloc int) bool {
	return g.BudgetAllocWords > 0 && t.AllocWords+int64(extraAlloc) > g.BudgetAllocWords
}

// spent reports whether the task has exceeded a per-task budget. It is the
// test both safe points make on every visit, and small enough to be made in
// line; overBudget words the cause.
func (g *Group) spent(t *Task, extraAlloc int) bool {
	return g.stepsSpent(t) || g.wordsSpent(t, extraAlloc)
}

// overBudget is the typed cause of a spent budget: the step budget's if both
// are.
func (g *Group) overBudget(t *Task, extraAlloc int) error {
	if g.stepsSpent(t) {
		return fmt.Errorf("step budget exhausted: %d instructions executed, limit %d", t.Steps, g.BudgetSteps)
	}
	return fmt.Errorf("allocation budget exhausted: %d words requested, quota %d", t.AllocWords+int64(extraAlloc), g.BudgetAllocWords)
}

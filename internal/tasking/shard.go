// The shard driver (Group.Shards > 1 over a generational heap): one nursery,
// one register and one wave per shard, so a shard's minor stops only its own
// tasks. It is called from:
//
//   - round start: setupShards (RunInit, runUntilSuspended); newTask asks shardOf
//   - init done: sealInit (RunInit)
//   - per task: Heap.SetAllocShard before a turn (runUntilSuspended) and before
//     a blocked task's ladder (collectSuspended)
//   - the slice: waved reads the task's shard's register; step's header takes
//     the nursery ranges its load hook tests
//   - after the round: serviceShardMinors (runUntilSuspended)
//   - after a collection: globalCollected (collect, fullCollect)
//   - the gate: alloc raises rgcShard[t.shard] in place of Rgc
//   - hooks: expose, from a load (event), a store (storeBarrier) and
//     OpSetGlobal (cold)

package tasking

import "tagfree/internal/code"

// shardState is the sharded scheduler's state, embedded in Group.
type shardState struct {
	// rgcShard[s] is the per-shard Rgc register: nonzero parks shard-s
	// tasks (at the same safe points as rgc) for a single-shard minor
	// collection. exposed[s] records that a shard-s young pointer may live
	// outside shard s's own world (a global, another shard's stack or
	// young object) — shard-s minors are blocked until a global collection
	// empties every nursery, because a shard minor traces only shard-s
	// stacks, the globals and the shard-filtered remembered set.
	rgcShard []code.Word
	exposed  []bool
	// sharded says per-shard scheduling is live: more than one shard over a
	// generational heap (setupShards).
	sharded bool
}

// setupShards lazily sizes the per-shard wave and exposure state and places
// the tasks spawned before Shards was set (later ones are placed by newTask).
// Idempotent; called from every scheduling entry point. The heap itself is
// sharded by the caller (heap.EnableNurseryShards) before the run starts.
func (g *Group) setupShards() {
	if g.Shards > 1 && g.rgcShard == nil {
		g.rgcShard = make([]code.Word, g.Shards)
		g.exposed = make([]bool, g.Shards)
		g.sharded = g.Heap.NurseryEnabled()
		for _, t := range g.runq {
			t.shard = g.shardOf(t)
		}
	}
}

// shardOf maps a task to its heap shard: ShardAssign[ID] when set,
// otherwise ID mod Shards. The init task (ID -1) runs in shard 0.
func (g *Group) shardOf(t *Task) int {
	if g.Shards <= 1 || t.ID < 0 {
		return 0
	}
	if t.ID < len(g.ShardAssign) {
		s := g.ShardAssign[t.ID] % g.Shards
		if s < 0 {
			s += g.Shards
		}
		return s
	}
	return t.ID % g.Shards
}

// expose marks a young value as escaped from its shard, blocking that
// shard's minors. Tag-free integers can alias young addresses, so the check
// is conservative — a spurious exposure only costs a blocked shard minor,
// never soundness.
func (g *Group) expose(v code.Word) {
	s := g.Heap.YoungShardOf(v)
	if !g.exposed[s] {
		g.exposed[s] = true
		g.Stats.ShardExposures++
	}
}

// globalCollected is the shard driver's part of every global collection. It
// stands down every pending shard wave (the collection went over all
// nurseries, so the waves' work is done) and lifts the exposure blocks once
// every nursery is empty — after any collection that pinned no survivor: with
// no young objects left there is nothing an old exposure flag could still
// protect.
func (g *Group) globalCollected() {
	clear(g.rgcShard)
	if g.exposed != nil && g.Heap.YoungUsed() == 0 {
		clear(g.exposed)
	}
}

// sealInit closes out a sharded group's init phase. Init runs in shard 0
// and populates the globals, so its young allocations are all "exposed" —
// the flags it raised would block every shard-0 minor from the first
// quantum. A full collection over the globals alone (the spawned tasks'
// stacks hold no heap pointers yet — just the unit argument) moves
// everything init built into the shared old region, after which the
// exposure flags can be cleared and every shard starts with an empty,
// private nursery.
func (g *Group) sealInit() {
	if g.sharded && g.Heap.YoungUsed() > 0 {
		g.fullCollect(nil)
	}
	g.globalCollected()
}

// serviceShardMinors runs any pending single-shard minor whose tasks have
// all reached safe points. Unlike a stop-the-world wave, a shard wave
// gathers only its own tasks: the scheduler keeps stepping every other
// shard between rounds, so their mutation overlaps the shard's collection
// (the overlap Stats.ShardMinorOverlapTasks measures). A wave whose shard
// is no longer minor-eligible — an exposure landed after the raise, a
// barrier overflow forced the next cycle major — escalates to the ordinary
// global wave instead, as does a shard whose minor did not free enough for
// the blocked allocation (the global ladder has the full-collection and
// grow rungs a shard minor lacks).
func (g *Group) serviceShardMinors() {
	for s := range g.rgcShard {
		if g.rgcShard[s] == 0 {
			continue
		}
		if g.rgc != 0 {
			// A global wave is also pending; its collection empties every
			// nursery, subsuming this shard's. The shard's suspended tasks
			// join the global wave and are rescued/resumed with it.
			g.rgcShard[s] = 0
			continue
		}
		var mine []*Task
		ready := true
		overlap := 0
		for _, t := range g.runq {
			switch t.Status {
			case Running:
				if t.shard == s {
					ready = false
				} else {
					overlap++
				}
			case SuspendedAlloc, SuspendedCall:
				if t.shard == s {
					mine = append(mine, t)
				}
			}
		}
		if !ready {
			continue // shard tasks still draining to their safe points
		}
		if !g.Col.MinorEligible() || g.exposed[s] {
			g.rgcShard[s] = 0
			g.rgc = 1
			continue
		}
		// Only this shard's young TLABs must be retired: other shards' young
		// buffers are untouched by a shard minor, and promotion allocates
		// past any live old-region carve.
		for _, t := range mine {
			g.retireTaskTLAB(t)
		}
		g.Col.CollectMinorShard(s, g.rootSet(mine), g.Globals)
		g.collected()
		g.Stats.ShardMinors++
		g.Stats.ShardMinorOverlapTasks += int64(overlap)
		g.rgcShard[s] = 0
		g.Heap.SetAllocShard(s)
		for _, t := range mine {
			if t.Status == SuspendedAlloc && g.Heap.Need(t.pendingAlloc) {
				// The shard minor was not enough; climb the global ladder.
				// The task stays suspended and is rescued by the global
				// collection's collectSuspended.
				g.emergency(t)
			}
		}
		if g.rgc == 0 {
			resume(mine)
		}
	}
}

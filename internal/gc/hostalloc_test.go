package gc_test

import (
	"testing"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
)

// towerSrc stops two tasks for a collection at the bottom of a recursion
// whose depth the entry point chooses: down keeps a list live across every
// call, so each frame has a slot to trace, and burn fills the heap from the
// bottom frame.
const towerSrc = `
let rec len xs = match xs with | [] -> 0 | _ :: r -> 1 + len r
let rec burn k = if k = 0 then 0 else (let _ = (k, k) in burn (k - 1))
let rec down xs n = if n = 0 then burn 400 else len xs + down xs (n - 1)
let deep100 () = down [1; 2; 3] 100
let deep600 () = down [1; 2; 3] 600
let deep2000 () = down [1; 2; 3] 2000
`

// TestCollectionHostAllocsIndependentOfDepth: what a collection allocates on
// the host is its product — the telemetry record and the per-task scan list
// in it — never something that grows with the stacks it walks. The frame
// list of a walk, the type-argument windows and the root jobs all live in the
// collector's scratch arena, which it hands back after every task, so a warmed
// collector allocates the same over a tower of 100 frames and of 2 000 —
// under every typed strategy (Appel's chain re-walk is quadratic in the
// depth, so its deep tower is 600 frames) and on both heaps.
func TestCollectionHostAllocsIndependentOfDepth(t *testing.T) {
	for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratInterp, gc.StratAppel} {
		for _, ms := range []bool{false, true} {
			hostAllocsByDepth(t, strat, ms)
		}
	}
}

func hostAllocsByDepth(t *testing.T, strat gc.Strategy, ms bool) {
	deep, depth := "deep2000", int64(2000)
	if strat == gc.StratAppel {
		deep, depth = "deep600", 600
	}
	var counts []float64
	for _, entry := range []string{"deep100", deep} {
		g, entries, err := pipeline.BuildTaskGroup(towerSrc, []string{entry},
			pipeline.Options{Strategy: strat, HeapWords: 512, MarkSweep: ms})
		if err != nil {
			t.Fatal(err)
		}
		g.Spawn(entries[0])
		g.Spawn(entries[0])
		if err := g.RunInit(); err != nil {
			t.Fatal(err)
		}
		roots, pending, err := g.RunUntilCollection()
		if err != nil || !pending || len(roots) != 2 {
			t.Fatalf("%s: no collection to measure: %d stacks, pending %v, %v", entry, len(roots), pending, err)
		}
		collect := func() { g.Col.Collect(roots, g.Globals) }
		for i := 0; i < 8; i++ {
			collect() // plans, site cache, arenas and the record list's capacity settle
		}
		before := g.Col.Stats.FramesTraced
		counts = append(counts, testing.AllocsPerRun(20, collect))
		if frames := (g.Col.Stats.FramesTraced - before) / 21; entry == deep && frames < 2*depth {
			t.Fatalf("%s: a collection walked %d frames, want two towers of %d", entry, frames, depth)
		}
	}
	if counts[0] != counts[1] {
		t.Errorf("%v ms=%v: a collection allocates %v times on the host over 100-frame towers and %v times over %d-frame towers",
			strat, ms, counts[0], counts[1], depth)
	}
	// Nothing else is left: the record (its list's growth is amortized over
	// the runs), its scan list, and a mark/sweep Heap.End's one.
	limit := 2.0
	if ms {
		limit = 3
	}
	if counts[0] > limit {
		t.Errorf("%v ms=%v: a collection allocates %v times on the host, want at most %v", strat, ms, counts[0], limit)
	}
}

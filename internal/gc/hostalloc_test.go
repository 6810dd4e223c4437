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
let deep2000 () = down [1; 2; 3] 2000
`

// TestCollectionHostAllocsIndependentOfDepth: what a collection allocates on
// the host is its product — the telemetry record and the per-task scan list
// in it — and the fixed cost of fanning out workers, never something that
// grows with the stacks it walks. The frame list of a walk, the type-argument
// windows and the root jobs all live in the per-worker scratch arena, so a
// warmed collector allocates the same over a tower of 100 frames and of 2 000.
func TestCollectionHostAllocsIndependentOfDepth(t *testing.T) {
	for _, par := range []int{1, 2} {
		var counts []float64
		for _, entry := range []string{"deep100", "deep2000"} {
			g, entries, err := pipeline.BuildTaskGroup(towerSrc, []string{entry},
				pipeline.Options{Strategy: gc.StratCompiled, HeapWords: 512, Parallelism: par})
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
			counts = append(counts, testing.AllocsPerRun(200, collect))
			if frames := (g.Col.Stats.FramesTraced - before) / 201; entry == "deep2000" && frames < 4000 {
				t.Fatalf("%s: a collection walked %d frames, want two towers of 2 000", entry, frames)
			}
		}
		if counts[0] != counts[1] {
			t.Errorf("par %d: a collection allocates %v times on the host over 100-frame towers and %v times over 2 000-frame towers",
				par, counts[0], counts[1])
		}
		// Serial, nothing else is left: the record (its list's growth is
		// amortized over the runs) and its scan list.
		if par == 1 && counts[0] > 2 {
			t.Errorf("a serial collection allocates %v times on the host; its record and scan list are two", counts[0])
		}
	}
}

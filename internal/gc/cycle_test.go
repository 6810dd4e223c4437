package gc_test

import (
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/tasking"
)

// cycleSrc stops two tasks for a collection while each keeps a list live
// across a call, with a global ref cell for the remembered set to hang an
// old→young edge on.
const cycleSrc = `
let cell = ref [0]
let rec len xs = match xs with | [] -> 0 | _ :: r -> 1 + len r
let rec burn k = if k = 0 then 0 else (let _ = (k, k) in burn (k - 1))
let rec down xs n = if n = 0 then burn 4000 else len xs + down xs (n - 1)
let a () = down [1; 2; 3] 20
let b () = down [4; 5; 6] 20
`

// cycleWant is everything that differs between the collection entry points,
// as a caller can observe it.
type cycleWant struct {
	preCollect int
	kind       string
	shard      int
	conc       bool
	lastMinor  bool
	// rebuilt is how many remembered-set entries the collection's own trace
	// recorded: one after a reset (a major re-discovers the planted edge),
	// none after a refilter (a minor keeps the entry it was given).
	rebuilt    int64
	concAborts int64
}

// TestCycleKinds pins what the four kinds of collection — full, minor,
// single-shard minor, the final pause of a concurrent cycle — do differently
// around the one root walk they share.
func TestCycleKinds(t *testing.T) {
	full := func(g *tasking.Group, roots []gc.TaskRoots) { g.Col.CollectFull(roots, g.Globals) }
	auto := func(g *tasking.Group, roots []gc.TaskRoots) { g.Col.Collect(roots, g.Globals) }
	shard0 := func(g *tasking.Group, roots []gc.TaskRoots) { g.Col.CollectMinorShard(0, roots[:1], g.Globals) }
	concStart := func(g *tasking.Group, roots []gc.TaskRoots) { g.Col.ConcStart(roots, g.Globals) }
	concFinish := func(g *tasking.Group, roots []gc.TaskRoots) {
		for g.Col.ConcSlice() == gc.ConcMore {
		}
		g.Col.ConcFinish(roots, g.Globals)
	}
	nursery := pipeline.Options{NurseryWords: 512}
	sharded := pipeline.Options{NurseryWords: 512, Shards: 2}
	rows := []struct {
		name string
		opts pipeline.Options
		ms   []bool
		// before runs uncounted (a cycle must be in flight to be finished or
		// aborted); collect is the entry point under test.
		before, collect func(*tasking.Group, []gc.TaskRoots)
		want            cycleWant
	}{
		{"full", pipeline.Options{}, []bool{false, true}, nil, full,
			cycleWant{preCollect: 1}},
		{"full/nursery", nursery, []bool{false, true}, nil, full,
			cycleWant{preCollect: 1, kind: "major", rebuilt: 1}},
		{"full/mid-cycle", pipeline.Options{}, []bool{true}, concStart, full,
			cycleWant{preCollect: 1, concAborts: 1}},
		{"minor", nursery, []bool{false, true}, nil, auto,
			cycleWant{preCollect: 1, kind: "minor", lastMinor: true}},
		{"full/no-fast-path", pipeline.Options{DisableGCFastPath: true}, []bool{false, true}, nil, full,
			cycleWant{preCollect: 1}},
		{"minor/no-fast-path", pipeline.Options{NurseryWords: 512, DisableGCFastPath: true}, []bool{false, true}, nil, auto,
			cycleWant{preCollect: 1, kind: "minor", lastMinor: true}},
		{"shard-minor", sharded, []bool{false, true}, nil, shard0,
			cycleWant{preCollect: 0, kind: "minor", shard: 1, lastMinor: true}},
		{"conc-finish", pipeline.Options{}, []bool{true}, concStart, concFinish,
			cycleWant{preCollect: 1, conc: true}},
	}
	for _, row := range rows {
		for _, ms := range row.ms {
			name := row.name + "/copying"
			if ms {
				name = row.name + "/marksweep"
			}
			t.Run(name, func(t *testing.T) {
				opts := row.opts
				opts.Strategy, opts.HeapWords, opts.MarkSweep = gc.StratCompiled, 1<<13, ms
				g, entries, err := pipeline.BuildTaskGroup(cycleSrc, []string{"a", "b"}, opts)
				if err != nil {
					t.Fatal(err)
				}
				g.Spawn(entries[0])
				g.Spawn(entries[1])
				if err := g.RunInit(); err != nil {
					t.Fatal(err)
				}
				if opts.Shards > 1 {
					// A sharded run services its shard minors itself; ask for
					// the global wave that stops every task.
					g.RequestMajor()
				}
				roots, pending, err := g.RunUntilCollection()
				if err != nil || !pending || len(roots) != 2 {
					t.Fatalf("no collection to drive: %d stacks, pending %v, %v", len(roots), pending, err)
				}
				col := g.Col
				if opts.NurseryWords > 0 {
					plantOldToYoung(t, g, roots)
				}
				if row.before != nil {
					row.before(g, roots)
				}
				calls, retire := 0, col.PreCollect
				col.PreCollect = func(tasks []gc.TaskRoots) {
					calls++
					if retire != nil {
						retire(tasks)
					}
				}
				edgesBefore, records := col.Gen.TracedEdges, len(col.Telem.Records)
				row.collect(g, roots)

				if len(col.Telem.Records) != records+1 {
					t.Fatalf("%d records appended, want 1", len(col.Telem.Records)-records)
				}
				rec := col.Telem.Records[records]
				got := cycleWant{
					preCollect: calls,
					kind:       rec.Kind,
					shard:      rec.Shard,
					conc:       rec.Conc != nil,
					lastMinor:  col.LastCollectionMinor(),
					rebuilt:    col.Gen.TracedEdges - edgesBefore,
					concAborts: col.Telem.Resilience.ConcAborts,
				}
				if got != row.want {
					t.Errorf("got  %+v\nwant %+v", got, row.want)
				}
				if col.ConcActive() {
					t.Error("a concurrent cycle is still in flight after the collection")
				}
				if opts.NurseryWords > 0 && col.RememberedLen() != 1 {
					t.Errorf("remembered set holds %d entries after the collection, want the planted edge", col.RememberedLen())
				}
			})
		}
	}
}

// plantOldToYoung collects until the global ref cell is tenured, then stores
// a fresh (young, shard 0) cons cell in it and reports the edge as the write
// barrier would — so the collection under test starts with exactly one
// remembered entry whose target survives young.
func plantOldToYoung(t *testing.T, g *tasking.Group, roots []gc.TaskRoots) {
	t.Helper()
	ci := -1
	for i, gl := range g.Prog.Globals {
		if gl.Name == "cell" {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatal("no global named cell")
	}
	for i := 0; !g.Heap.InOld(g.Globals[ci]); i++ {
		if i == 8 {
			t.Fatal("the global ref cell is still young after 8 collections")
		}
		g.Col.Collect(roots, g.Globals)
	}
	g.Col.CollectFull(roots, g.Globals) // discharge anything forcing a major
	if !g.Col.MinorEligible() || g.Col.RememberedLen() != 0 {
		t.Fatalf("after a major: minor eligible %v, %d remembered", g.Col.MinorEligible(), g.Col.RememberedLen())
	}
	g.Heap.SetAllocShard(0)
	cons := g.Heap.MustAlloc(2)
	g.Heap.SetField(cons, 0, code.EncodeInt(g.Heap.Repr, 7))
	g.Heap.SetField(cons, 1, 0)
	if !g.Heap.InYoung(cons) {
		t.Fatal("a fresh allocation on a nursery heap is not young")
	}
	g.Heap.SetField(g.Globals[ci], 0, cons)
	g.Col.Remember(g.Globals[ci], 0, g.Prog.Globals[ci].Desc.Args[0])
	if g.Col.RememberedLen() != 1 {
		t.Fatalf("planted one edge, remembered set holds %d", g.Col.RememberedLen())
	}
}

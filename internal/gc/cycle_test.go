package gc_test

import (
	"slices"
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
	lastMinor  bool
	// rebuilt is how many remembered-set entries the collection's own trace
	// recorded: one when a major re-discovers the planted edge to a child it
	// pinned, none when the child is promoted (minors and majors alike).
	rebuilt int64
}

// TestCycleKinds pins what the three kinds of collection — full, minor,
// single-shard minor — do differently around the one root walk they share.
func TestCycleKinds(t *testing.T) {
	full := func(g *tasking.Group, roots []gc.TaskRoots) { g.Col.CollectFull(roots, g.Globals) }
	auto := func(g *tasking.Group, roots []gc.TaskRoots) { g.Col.Collect(roots, g.Globals) }
	shard0 := func(g *tasking.Group, roots []gc.TaskRoots) { g.Col.CollectMinorShard(0, roots[:1], g.Globals) }
	nursery := pipeline.Options{NurseryWords: 512}
	sharded := pipeline.Options{NurseryWords: 512, Shards: 2}
	rows := []struct {
		name string
		opts pipeline.Options
		ms   []bool
		// before runs uncounted (it sets up the heap the collection meets);
		// collect is the entry point under test.
		before, collect func(*tasking.Group, []gc.TaskRoots)
		want            cycleWant
		// pinned says the planted edge's child must stay young: the old
		// region had no room to promote it into.
		pinned bool
	}{
		{"full", pipeline.Options{}, []bool{false, true}, nil, full,
			cycleWant{preCollect: 1}, false},
		{"full/nursery", nursery, []bool{false, true}, nil, full,
			cycleWant{preCollect: 1, kind: "major"}, false},
		{"full/nursery/pinned", nursery, []bool{false, true}, fillOld, full,
			cycleWant{preCollect: 1, kind: "major", rebuilt: 1}, true},
		{"minor", nursery, []bool{false, true}, nil, auto,
			cycleWant{preCollect: 1, kind: "minor", lastMinor: true}, false},
		{"full/no-fast-path", pipeline.Options{DisableGCFastPath: true}, []bool{false, true}, nil, full,
			cycleWant{preCollect: 1}, false},
		{"minor/no-fast-path", pipeline.Options{NurseryWords: 512, DisableGCFastPath: true}, []bool{false, true}, nil, auto,
			cycleWant{preCollect: 1, kind: "minor", lastMinor: true}, false},
		{"shard-minor", sharded, []bool{false, true}, nil, shard0,
			cycleWant{preCollect: 0, kind: "minor", shard: 1, lastMinor: true}, false},
	}
	for _, row := range rows {
		for _, ms := range row.ms {
			name := row.name + "/copying"
			if ms {
				name = row.name + "/marksweep"
			}
			t.Run(name, func(t *testing.T) {
				opts := row.opts
				opts.MarkSweep = ms
				g, roots := cycleGroup(t, opts)
				col := g.Col
				cell := -1
				if opts.NurseryWords > 0 {
					cell = plantOldToYoung(t, g, roots)
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
				edgesBefore, records, pins := col.Gen.TracedEdges, len(col.Telem.Records), g.Heap.Stats.PromotionFailures
				row.collect(g, roots)

				if len(col.Telem.Records) != records+1 {
					t.Fatalf("%d records appended, want 1", len(col.Telem.Records)-records)
				}
				rec := col.Telem.Records[records]
				got := cycleWant{
					preCollect: calls,
					kind:       rec.Kind,
					shard:      rec.Shard,
					lastMinor:  col.LastCollectionMinor(),
					rebuilt:    col.Gen.TracedEdges - edgesBefore,
				}
				if got != row.want {
					t.Errorf("got  %+v\nwant %+v", got, row.want)
				}
				if opts.NurseryWords == 0 {
					return
				}
				child := g.Heap.Field(g.Globals[cell], 0)
				if v := code.DecodeInt(g.Heap.Repr, g.Heap.Field(child, 0)); v != 7 {
					t.Errorf("the planted child holds %d, want 7", v)
				}
				switch pinned := g.Heap.Stats.PromotionFailures != pins; {
				case pinned != row.pinned:
					t.Errorf("child pinned %v, want %v", pinned, row.pinned)
				case !pinned && (!g.Heap.InOld(child) || col.RememberedLen() != 0):
					t.Errorf("child old %v, %d remembered; want it promoted and the set empty", g.Heap.InOld(child), col.RememberedLen())
				case pinned && (!g.Heap.InYoung(child) || col.RememberedLen() != 1 || col.MinorEligible()):
					t.Errorf("child young %v, %d remembered, minor eligible %v; want it pinned, the edge rebuilt and a major next",
						g.Heap.InYoung(child), col.RememberedLen(), col.MinorEligible())
				}
			})
		}
	}
}

// cycleGroup runs cycleSrc's two tasks under opts (compiled, an 8k-word
// heap) to their first collection.
func cycleGroup(t *testing.T, opts pipeline.Options) (*tasking.Group, []gc.TaskRoots) {
	opts.Strategy, opts.HeapWords = gc.StratCompiled, 1<<13
	return stoppedGroup(t, cycleSrc, []string{"a", "b"}, opts)
}

// TestPromotionFailurePins drives the two ways a promotion finds no room
// over a young list 7 :: 8 :: 9 hung off an old ref cell: a copying major
// whose to-space slack is all owed to uncopied old objects (oldReserve), and
// a mark/sweep minor with the bump region full and no free block of a cell's
// size. Each cell stays where it is with its value, the verifier passes
// (VerifyHeap: after every collection), the counter counts the three, and
// the collector's next cycle is a major.
func TestPromotionFailurePins(t *testing.T) {
	for _, row := range []struct {
		name    string
		ms      bool
		collect func(*gc.Collector, []gc.TaskRoots, []code.Word)
		kind    string
	}{
		{"copying-major-reserve", false, (*gc.Collector).CollectFull, "major"},
		{"marksweep-minor-free-list-miss", true, (*gc.Collector).Collect, "minor"},
	} {
		t.Run(row.name, func(t *testing.T) {
			g, roots := cycleGroup(t, pipeline.Options{NurseryWords: 512, MarkSweep: row.ms, VerifyHeap: true})
			h := g.Heap
			ci := plantOldToYoung(t, g, roots)
			c8, c9 := h.MustAlloc(2), h.MustAlloc(2)
			h.SetField(h.Field(g.Globals[ci], 0), 1, c8)
			h.SetField(c8, 0, code.EncodeInt(h.Repr, 8))
			h.SetField(c8, 1, c9)
			h.SetField(c9, 0, code.EncodeInt(h.Repr, 9))
			h.SetField(c9, 1, 0)
			list := func() (cells []code.Word, values []int64) {
				for c := h.Field(g.Globals[ci], 0); c != 0; c = h.Field(c, 1) {
					cells = append(cells, c)
					values = append(values, code.DecodeInt(h.Repr, h.Field(c, 0)))
				}
				return cells, values
			}
			young, _ := list()
			fillOld(g, roots)
			pins := h.Stats.PromotionFailures

			row.collect(g.Col, roots, g.Globals)
			if kind := g.Col.Telem.Records[len(g.Col.Telem.Records)-1].Kind; kind != row.kind {
				t.Fatalf("the collection under test was a %s, want a %s", kind, row.kind)
			}
			cells, values := list()
			if !slices.Equal(cells, young) || !slices.Equal(values, []int64{7, 8, 9}) {
				t.Fatalf("list at %v holding %v after the pinning collection; want it still at %v holding [7 8 9]", cells, values, young)
			}
			if n := h.Stats.PromotionFailures - pins; n != 3 {
				t.Fatalf("%d promotion failures counted, want 3", n)
			}
			if errs := h.VerifyHeap(); len(errs) != 0 {
				t.Fatalf("verify: %v", errs)
			}
			if g.Col.MinorEligible() {
				t.Fatal("a collection that pinned left the next one minor-eligible")
			}

			g.Col.Collect(roots, g.Globals)
			if kind := g.Col.Telem.Records[len(g.Col.Telem.Records)-1].Kind; kind != "major" {
				t.Fatalf("the collection after the pins was a %s, want a major", kind)
			}
			cells, values = list()
			if !slices.Equal(values, []int64{7, 8, 9}) {
				t.Fatalf("list holds %v after the major, want [7 8 9]", values)
			}
			if !row.ms && !h.InOld(cells[0]) {
				// The first major compacted the old region: the second owes
				// to-space only the live old words and promotes the list.
				t.Fatal("the major after the pins left the list young")
			}
		})
	}
}

// plantOldToYoung collects until the global ref cell is tenured, then stores
// a fresh (young, shard 0) cons cell in it and reports the edge as the write
// barrier would — so the collection under test starts with exactly one
// remembered entry. It returns the cell's global index.
func plantOldToYoung(t *testing.T, g *tasking.Group, roots []gc.TaskRoots) int {
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
	return ci
}

// fillOld allocates garbage in the old region until it has no word left
// (objects above the nursery's size are born old): a copying major then owes
// all of to-space to old copies, and a mark/sweep one has neither bump room
// nor a free block, so no young survivor can be promoted.
func fillOld(g *tasking.Group, _ []gc.TaskRoots) {
	h := g.Heap
	big := h.YoungWords() + 1
	for r := h.SemiWords() - h.Used(); r > 0; r = h.SemiWords() - h.Used() {
		n := big
		if r < 2*big {
			n = r
		}
		if _, err := h.Alloc(n); err != nil {
			panic(err)
		}
	}
}

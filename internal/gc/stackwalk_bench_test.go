package gc_test

import (
	"fmt"
	"testing"
	"time"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// polyTowerSrc is the benchmark's polystack shape: four tasks, each a tower
// of one polymorphic frame at its own instantiation, stopped when the probes
// at the top have filled the heap.
const polyTowerSrc = `
let probe x = (let _ = [x; x] in 1)
let rec pdepth x acc n = if n = 0 then acc else probe x + pdepth x acc (n - 1)
let rec towers x n acc = if n = 0 then acc else towers x (n - 1) (acc + pdepth x 7 640)
let tower_a () = towers (5, true) 30 0
let tower_b () = towers [6] 30 0
let tower_c () = towers 7 30 0
let tower_d () = towers ((8, 9), [10]) 30 0
`

// mutualTowerSrc is the shape the plan edges exist for: a tower of three
// mutually recursive polymorphic frames, ping calling pong from two sites, so
// no frame's caller plan is its own and one caller plan has two callees.
const mutualTowerSrc = `
let probe x = (let _ = [x; x] in 1)
let rec ping x n = if n = 0 then 0 else (if n mod 2 = 0 then probe x + pong x (n - 1) else pong x (n - 1) + 1)
and pong x n = if n = 0 then 0 else probe x + pang (x, x) (n - 1)
and pang p n = (match p with | (x, _) -> if n = 0 then 0 else probe x + ping x (n - 1))
let rec rounds x n acc = if n = 0 then acc else rounds x (n - 1) (acc + ping x 640)
let mutual_a () = rounds (5, true) 30 0
let mutual_b () = rounds [6] 30 0
`

// BenchmarkStackWalk times one collection over deep stacks that hold almost
// nothing — the per-collection fixed cost of the tag-free scheme, §3's "the
// stack is traversed at most twice" — and reports it per frame walked, with
// the host bytes a collection allocates: the walk's frame list, the
// type-argument windows and the plans all come from the scratch arena and the
// caches, so B/op is the telemetry record (`make profile-gc` adds the CPU
// profile). The mark/sweep row walks the same tower on a heap that marks
// instead of copying.
func BenchmarkStackWalk(b *testing.B) {
	towers := []string{"tower_a", "tower_b", "tower_c", "tower_d"}
	for _, shape := range []struct {
		name, src string
		entries   []string
		ms        bool
	}{
		{"polytower", polyTowerSrc, towers, false},
		{"mutual", mutualTowerSrc, []string{"mutual_a", "mutual_b"}, false},
		{"polytower-marksweep", polyTowerSrc, towers, true},
	} {
		b.Run(shape.name, func(b *testing.B) {
			g, roots := stoppedGroup(b, shape.src, shape.entries,
				pipeline.Options{Strategy: gc.StratCompiled, HeapWords: 1 << 12, MarkSweep: shape.ms})
			g.Col.Collect(roots, g.Globals) // plans and arenas
			frames := g.Col.Stats.FramesTraced
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				g.Col.Collect(roots, g.Globals)
			}
			frames = g.Col.Stats.FramesTraced - frames
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(frames), "ns/frame")
			b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
		})
	}
}

// stoppedGroup runs the entries as tasks up to their first collection and
// returns the group with the root set the collector is about to be handed;
// Collect may run on it any number of times. The root set holds a stack for
// every task that has not returned: a short task may finish inside the first
// heapful (taskserve's req_tiny and req_small do), and then it has no stack
// left to trace. A task that faulted fails the run.
func stoppedGroup(tb testing.TB, src string, entryNames []string, opts pipeline.Options) (*tasking.Group, []gc.TaskRoots) {
	tb.Helper()
	g, entries, err := pipeline.BuildTaskGroup(src, entryNames, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tasks := make([]*tasking.Task, len(entries))
	for i, e := range entries {
		tasks[i] = g.Spawn(e)
	}
	if err := g.RunInit(); err != nil {
		tb.Fatal(err)
	}
	if opts.Shards > 1 {
		// A sharded run services its shard minors itself; ask for the global
		// wave that stops every task.
		g.RequestMajor()
	}
	roots, pending, err := g.RunUntilCollection()
	live := 0
	for _, t := range tasks {
		if t.Status != tasking.Done {
			live++
		}
	}
	if err != nil || !pending || len(roots) != live {
		tb.Fatalf("no collection to drive: %d stacks of %d unfinished tasks, pending %v, %v", len(roots), live, pending, err)
	}
	return g, roots
}

// BenchmarkCollectTasks times Collect on the root set every task workload
// has at its first collection — the per-workload pause — under the compiled
// strategy on both heap disciplines and under Appel's, whose root resolution
// is the most expensive (the O(n²) chain re-walks).
func BenchmarkCollectTasks(b *testing.B) {
	for _, w := range workloads.Tasking {
		for _, cfg := range []struct {
			strat gc.Strategy
			ms    bool
		}{{gc.StratCompiled, false}, {gc.StratCompiled, true}, {gc.StratAppel, false}} {
			kind, scale := "copying", 1
			if cfg.ms {
				kind, scale = "marksweep", 2
			}
			b.Run(fmt.Sprintf("%s/%v/%s", w.Name, cfg.strat, kind), func(b *testing.B) {
				g, roots := stoppedGroup(b, w.Source, w.Entries,
					pipeline.Options{Strategy: cfg.strat, HeapWords: scale * w.HeapWords, MarkSweep: cfg.ms})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g.Col.Collect(roots, g.Globals)
				}
			})
		}
	}
}

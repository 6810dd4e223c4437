package tasking_test

import (
	"strings"
	"testing"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/tasking"
)

// waveSrc: churn tasks that allocate garbage between calls, a task that builds
// one 400-cell list — 400 calls down, then 400 allocations with no call between
// them, all live — and a top-level binding that allocates 1200 words, 600 of
// them garbage by the time a 1k-word heap is full.
const waveSrc = `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let warm = sum (upto 300) + sum (upto 300)
let round () = sum (upto 25)
let rec work rounds acc =
  if rounds = 0 then acc
  else work (rounds - 1) (acc + round ())
let churn_a () = work 30 0
let churn_b () = work 30 1000
let churn_c () = work 30 2000
let churn_d () = work 30 3000
let build () = sum (upto 400)
`

// waveCounts is what a suspend wave can move, as deltas over one episode.
type waveCounts struct {
	collections, latencies, shardMinors     int64
	emergency, torture, injected, recovered int64
}

func countsOf(g *tasking.Group) waveCounts {
	r := g.Col.Telem.Resilience
	return waveCounts{
		collections: g.Stats.Collections,
		latencies:   int64(len(g.Stats.SuspendLatency)),
		shardMinors: g.Stats.ShardMinors,
		emergency:   r.EmergencyCollections,
		torture:     r.TortureCollections,
		injected:    r.InjectedOOMs,
		recovered:   r.LadderRecovered,
	}
}

func (c waveCounts) minus(b waveCounts) waveCounts {
	return waveCounts{
		c.collections - b.collections, c.latencies - b.latencies, c.shardMinors - b.shardMinors,
		c.emergency - b.emergency, c.torture - b.torture, c.injected - b.injected, c.recovered - b.recovered,
	}
}

func wavesUp(g *tasking.Group) (global, shard bool) {
	regs := g.Registers()
	for _, r := range regs[1:] {
		shard = shard || r != 0
	}
	return regs[0] != 0, shard
}

// episode is one stretch of a run between two scheduling rounds that both
// start with every register zero, in which something of waveCounts moved or a
// register was seen up: a wave raised, gathered and serviced (or two that
// overlapped).
type episode struct {
	delta waveCounts
	// after is the status of every spawned task, in spawn order, at the first
	// round after the wave was serviced.
	after string
}

func statuses(g *tasking.Group) string {
	var s []string
	for _, t := range g.Tasks {
		s = append(s, t.Status.String())
	}
	return strings.Join(s, " ")
}

type waveRow struct {
	name    string
	opts    pipeline.Options
	entries []string
	// tick, when set, runs at the top of every scheduling round (the group's
	// Tick hook) and says whether the scheduler should stay alive with no task.
	tick func(g *tasking.Group, round int) bool
	// The row is about the first episode of the scheduled run that is accepts
	// (nil: the first one), or — init — about what RunInit did.
	is   func(d waveCounts) bool
	init bool
	want episode
}

// TestWaveKinds pins what differs between the kinds of suspend wave: per kind,
// what servicing one wave adds to the collection count, the suspend-latency
// samples, the shard-minor count and the resilience counters, and which tasks
// run afterwards. Every wave leaves Rgc and every shard register zero.
func TestWaveKinds(t *testing.T) {
	churn2 := []string{"churn_a", "churn_b"}
	churn4 := []string{"churn_a", "churn_b", "churn_c", "churn_d"}
	majorAt := func(at int, alive int) func(*tasking.Group, int) bool {
		return func(g *tasking.Group, round int) bool {
			if round == at {
				g.RequestMajor()
			}
			return round < alive
		}
	}
	running := func(n int) string { return strings.TrimSuffix(strings.Repeat("running ", n), " ") }
	rows := []waveRow{
		// Both tasks fail an allocation in the one wave; the first raised it.
		{name: "allocation failure", entries: churn2,
			opts: pipeline.Options{HeapWords: 1024},
			want: episode{waveCounts{collections: 1, latencies: 1, emergency: 1, recovered: 2}, running(2)}},
		{name: "torture", entries: churn2,
			opts: pipeline.Options{HeapWords: 1 << 16, Torture: true},
			want: episode{waveCounts{collections: 1, latencies: 1, torture: 1}, running(2)}},
		// The 650th allocation: init makes the first 600.
		{name: "injected failure", entries: churn2,
			opts: pipeline.Options{HeapWords: 1 << 16, FailAllocNth: 650},
			want: episode{waveCounts{collections: 1, latencies: 1, emergency: 1, injected: 1, recovered: 1}, running(2)}},
		// The second collection is the major a forced major adds on a
		// generational heap.
		{name: "RequestMajor, a task runnable", entries: churn2,
			opts: pipeline.Options{HeapWords: 1 << 16, NurseryWords: 1 << 12},
			tick: majorAt(3, 0),
			want: episode{waveCounts{collections: 2, latencies: 1}, running(2)}},
		{name: "RequestMajor, no task", entries: nil,
			opts: pipeline.Options{HeapWords: 1 << 16, NurseryWords: 1 << 12},
			tick: majorAt(3, 6),
			want: episode{waveCounts{collections: 2, latencies: 1}, ""}},
		// Both shards fill in the same round. A shard's wave is no sample of the
		// suspend latency and no emergency.
		{name: "shard minor", entries: churn4,
			opts: pipeline.Options{HeapWords: 1 << 14, NurseryWords: 512, Shards: 2},
			want: episode{waveCounts{collections: 2, shardMinors: 2}, running(4)}},
		// Every minor promotes into the old region and none reclaims it, so
		// the lists the churn tasks drop fill it: a shard minor then has no
		// room to promote into and pins its survivors in place, leaving no room
		// for the blocked allocation. The global wave it escalates to is a
		// major (the pins forced it), which frees the old region and promotes
		// them.
		{name: "shard minor that escalates", entries: []string{"build", "churn_b", "churn_c", "churn_d"},
			opts: pipeline.Options{HeapWords: 2048, NurseryWords: 64, Shards: 2},
			is:   func(d waveCounts) bool { return d.shardMinors > 0 && d.emergency > 0 },
			want: episode{waveCounts{collections: 2, latencies: 1, shardMinors: 1, emergency: 1, recovered: 1}, running(4)}},
		// A major is requested in a round that starts with a shard's register
		// up: the shard's tasks join the global wave, no shard minor runs.
		{name: "shard wave subsumed by a global one", entries: []string{"churn_a", "churn_b", "build", "churn_d"},
			opts: pipeline.Options{HeapWords: 1 << 14, NurseryWords: 512, Shards: 2},
			tick: func(g *tasking.Group, round int) bool {
				if _, shard := wavesUp(g); shard {
					g.RequestMajor()
				}
				return false
			},
			want: episode{waveCounts{collections: 2, latencies: 1}, running(4)}},
		// No wave: init collects over its own stack, and no latency is sampled.
		{name: "init alone", entries: churn2, init: true,
			opts: pipeline.Options{HeapWords: 1024},
			want: episode{waveCounts{collections: 1, emergency: 1, recovered: 1}, running(2)}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			row.opts.Strategy = gc.StratCompiled
			g, entries, err := pipeline.BuildTaskGroup(waveSrc, row.entries, row.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				g.Spawn(e)
			}
			var episodes []episode
			base := countsOf(g)
			if err := g.RunInit(); err != nil {
				t.Fatal(err)
			}
			initial := episode{delta: countsOf(g).minus(base), after: statuses(g)}
			prev, open, round := countsOf(g), false, 0
			// The hook runs at the top of a round, and never while Rgc is up:
			// an episode opens at the first round that finds a count moved or
			// a shard's register up, and closes at the first with none up.
			g.Tick = func(int64) bool {
				cur := countsOf(g)
				global, shard := wavesUp(g)
				if !open && (cur != prev || shard) {
					base, open = prev, true
				}
				if global {
					t.Errorf("round %d starts with Rgc raised", round)
				}
				if open && !shard {
					episodes = append(episodes, episode{delta: cur.minus(base), after: statuses(g)})
					open = false
				}
				prev = cur
				alive := false
				if row.tick != nil {
					alive = row.tick(g, round)
				}
				round++
				return alive
			}
			if err := g.Run(); err != nil {
				t.Fatal(err)
			}
			for _, r := range g.Registers() {
				if r != 0 {
					t.Errorf("the run ended with registers %v", g.Registers())
					break
				}
			}
			got, found := initial, row.init
			for _, e := range episodes {
				if !found && (row.is == nil || row.is(e.delta)) {
					got, found = e, true
				}
			}
			if !found {
				t.Fatalf("none of the run's %d episodes is the row's: %+v", len(episodes), episodes)
			}
			if got != row.want {
				t.Errorf("got  %+v\nwant %+v", got, row.want)
			}
		})
	}
}

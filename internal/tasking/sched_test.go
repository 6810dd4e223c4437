package tasking_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/tasking"
)

// schedSrc has tasks of very different lengths: short ones that come and
// go, a long one that outlives its step budget, and a deep recursion that
// grows its stack past the initial 1024 words.
const schedSrc = `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let round () = sum (upto 25)
let rec work rounds acc =
  if rounds = 0 then acc
  else work (rounds - 1) (acc + round ())
let short () = work 3 0
let medium () = work 20 0
let long () = work 400 0
let deep () = sum (upto 600)
`

var schedEntries = []string{"short", "medium", "long", "deep"}

// schedTrace is what one scripted run looked like from outside the
// scheduler: per tick, the tasks that took turns since the previous tick
// (id, instructions executed, status afterwards), and the final state.
type schedTrace struct {
	turns []string
	final string
}

// scriptedRun drives one group through a fixed script from the Tick hook —
// spawns spread over the run, cancellations of live and finished tasks —
// while budget faults, natural finishes and collection waves (global and,
// when sharded, per shard) happen underneath. run is the scheduler under
// test; check, when set, runs at every tick.
func scriptedRun(t *testing.T, opts pipeline.Options, run func(*tasking.Group) error, check func(*tasking.Group)) schedTrace {
	t.Helper()
	g, entries, err := pipeline.BuildTaskGroup(schedSrc, schedEntries, opts)
	if err != nil {
		t.Fatal(err)
	}
	const spawns = 48
	pattern := []int{0, 0, 1, 0, 3, 0, 2, 1} // indexes into entries
	var tr schedTrace
	var seen []int64 // Steps of each task at the previous tick
	spawned, tick := 0, 0
	g.Tick = func(now int64) bool {
		line := fmt.Sprintf("t=%d now=%d gcs=%d:", tick, now, g.Stats.Collections)
		for i, task := range g.Tasks {
			if i == len(seen) {
				seen = append(seen, 0)
			}
			if d := task.Steps - seen[i]; d != 0 {
				line += fmt.Sprintf(" (%d +%d %v)", task.ID, d, task.Status)
				seen[i] = task.Steps
			}
		}
		tr.turns = append(tr.turns, line)
		if check != nil {
			check(g)
		}
		if tick%3 == 0 && spawned < spawns {
			g.Spawn(entries[pattern[spawned%len(pattern)]])
			spawned++
			if spawned%8 == 0 { // a burst: two more in the same tick
				g.Spawn(entries[0])
				g.Spawn(entries[1])
			}
		}
		if tick%7 == 3 && len(g.Tasks) > 0 {
			// Sometimes a running task, sometimes one long finished.
			g.CancelTask(g.Tasks[(tick*5)%len(g.Tasks)], fmt.Errorf("canceled at tick %d", tick))
		}
		tick++
		return spawned < spawns
	}
	if err := g.RunInit(); err != nil {
		t.Fatal(err)
	}
	if err := run(g); err != nil {
		t.Fatal(err)
	}
	for _, task := range g.Tasks {
		tr.final += fmt.Sprintf("task %d: %v steps=%d alloc=%d", task.ID, task.Status, task.Steps, task.AllocWords)
		if task.Fault != nil {
			tr.final += fmt.Sprintf(" fault=%v frames=%d cause=%v", task.Fault.Kind, len(task.Fault.Frames), task.Fault.Cause)
		} else {
			tr.final += fmt.Sprintf(" result=%d", code.DecodeInt(g.Prog.Repr, task.Result))
		}
		tr.final += "\n"
	}
	tr.final += fmt.Sprintf("now=%d stats=%+v\nheap: allocs=%d words=%d copied=%d freelist=%d\n",
		g.Now(), g.Stats, g.Heap.Stats.Allocations, g.Heap.Stats.WordsAllocated,
		g.Heap.Stats.WordsCopied, g.Heap.Stats.FreeListHits)
	return tr
}

// TestSchedulerOrderMatchesAllTaskScan pins the run queue against the
// scheduler it replaced: under the same script, the sequence of turns, every
// task's outcome, the group counters (suspend latencies included — they
// depend on the order of turns within a round) and the heap counters are
// identical to a run that scans every task each round and never recycles a
// stack. At every tick the queue must also hold exactly the unfinished
// tasks, in spawn order.
func TestSchedulerOrderMatchesAllTaskScan(t *testing.T) {
	configs := map[string]pipeline.Options{
		"copying":   {Strategy: gc.StratCompiled, HeapWords: 2048, BudgetSteps: 60_000},
		"marksweep": {Strategy: gc.StratCompiled, HeapWords: 4096, MarkSweep: true, BudgetSteps: 60_000},
		"shards": {Strategy: gc.StratCompiled, HeapWords: 8192, NurseryWords: 1024,
			Shards: 2, BudgetSteps: 60_000, VerifyHeap: true},
		"shards-tlab": {Strategy: gc.StratCompiled, HeapWords: 8192, NurseryWords: 1024, TLABWords: 32,
			Shards: 2, BudgetSteps: 60_000, VerifyHeap: true},
		"at-allocs": {Strategy: gc.StratCompiled, HeapWords: 2048, BudgetSteps: 60_000, SuspendAtAllocs: true},
	}
	for name, opts := range configs {
		t.Run(name, func(t *testing.T) {
			want := scriptedRun(t, opts, (*tasking.Group).RunScanningAllTasks, nil)
			got := scriptedRun(t, opts, (*tasking.Group).Run, func(g *tasking.Group) {
				// The queue may still hold tasks that finished since the last
				// compaction; what it must never do is lose or reorder a live one.
				var live, queued []int
				for _, task := range g.Tasks {
					if task.Status != tasking.Done && task.Status != tasking.Faulted {
						live = append(live, task.ID)
					}
				}
				for _, id := range g.RunQueueIDs() {
					if s := g.Tasks[id].Status; s != tasking.Done && s != tasking.Faulted {
						queued = append(queued, id)
					}
				}
				if !reflect.DeepEqual(live, queued) {
					t.Fatalf("run queue holds live tasks %v, the registry has %v", queued, live)
				}
			})
			for i := range want.turns {
				if i >= len(got.turns) || got.turns[i] != want.turns[i] {
					g := "<run ended>"
					if i < len(got.turns) {
						g = got.turns[i]
					}
					t.Fatalf("turn sequence diverges at tick %d:\n got  %s\n want %s", i, g, want.turns[i])
				}
			}
			if len(got.turns) != len(want.turns) {
				t.Fatalf("%d ticks, the all-task scan took %d", len(got.turns), len(want.turns))
			}
			if got.final != want.final {
				t.Fatalf("final state diverges:\n got:\n%s\n want:\n%s", got.final, want.final)
			}
			// The script must actually have exercised what it claims to.
			for _, need := range []string{"fault=BudgetExceeded", "canceled at tick", "result="} {
				if !strings.Contains(want.final, need) {
					t.Errorf("script never produced %q", need)
				}
			}
			if strings.Contains(want.final, " Collections:0 ") {
				t.Error("script never collected")
			}
			if opts.Shards > 1 && strings.Contains(want.final, " ShardMinors:0 ") {
				t.Error("sharded script never ran a shard minor")
			}
		})
	}
}

// TestRunQueueAndStackPoolStayBounded serves 5000 short requests at four in
// flight from a Tick hook: the run queue must never hold more than the
// requests in flight plus one, and the whole run must get by on that many
// stacks (the +1 is the init task's, recycled like any other).
func TestRunQueueAndStackPoolStayBounded(t *testing.T) {
	const requests, inflight = 5000, 4
	g, entries, err := pipeline.BuildTaskGroup(schedSrc, []string{"short"},
		pipeline.Options{Strategy: gc.StratCompiled, HeapWords: 2048})
	if err != nil {
		t.Fatal(err)
	}
	var running []*tasking.Task
	spawned, finished, maxQueue := 0, 0, 0
	g.Tick = func(int64) bool {
		keep := running[:0]
		for _, task := range running {
			if task.Status == tasking.Done {
				finished++
			} else {
				keep = append(keep, task)
			}
		}
		running = keep
		for len(running) < inflight && spawned < requests {
			running = append(running, g.Spawn(entries[0]))
			spawned++
		}
		if n := len(g.RunQueueIDs()); n > maxQueue {
			maxQueue = n
		}
		return finished < requests
	}
	if err := g.RunInit(); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != requests || len(g.Tasks) != requests {
		t.Fatalf("finished %d of %d requests over %d tasks", finished, requests, len(g.Tasks))
	}
	if maxQueue > inflight+1 {
		t.Errorf("run queue reached %d tasks with %d in flight", maxQueue, inflight)
	}
	if n := len(g.RunQueueIDs()); n != 0 {
		t.Errorf("run queue still holds %d tasks after the run", n)
	}
	// Stacks are only ever created by Spawn/RunInit on an empty pool and only
	// ever end up back in it, so the pool after the run is every stack made.
	lens, _ := g.PooledStacks()
	if len(lens) > inflight+1 {
		t.Errorf("%d requests allocated %d stacks with %d in flight", requests, len(lens), inflight)
	}
}

// TestRecycledStackIsAllZero: a stack handed back by a task that recursed
// 600 frames deep (growing it past 1024 words) — whether it returned or was
// cut down mid-recursion by its budget — must be zero over its whole length
// when Spawn takes it, and the task that reuses it must compute what it
// would on a fresh one. A faulted task keeps its backtrace.
func TestRecycledStackIsAllZero(t *testing.T) {
	for _, budget := range []int64{0, 4000} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			g, entries, err := pipeline.BuildTaskGroup(schedSrc, []string{"deep", "medium"},
				pipeline.Options{Strategy: gc.StratCompiled, HeapWords: 1 << 16, BudgetSteps: budget})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.RunInit(); err != nil {
				t.Fatal(err)
			}
			deep := g.Spawn(entries[0])
			if err := g.Run(); err != nil {
				t.Fatal(err)
			}
			if budget == 0 {
				if got := code.DecodeInt(g.Prog.Repr, deep.Result); deep.Status != tasking.Done || got != 600*601/2 {
					t.Fatalf("deep task: %v, result %d", deep.Status, got)
				}
			} else if deep.Fault == nil || deep.Fault.Kind != tasking.FaultBudget || len(deep.Fault.Frames) < 2 {
				t.Fatalf("deep task did not fault on its budget with a backtrace: %v %v", deep.Status, deep.Fault)
			}
			lens, nonzero := g.PooledStacks()
			if len(lens) != 1 || lens[0] <= 1024 {
				t.Fatalf("pool after the run: stack lengths %v, want the one grown stack", lens)
			}
			if nonzero[0] != 0 {
				t.Fatalf("recycled stack has %d nonzero words of %d", nonzero[0], lens[0])
			}
			g.BudgetSteps = 0
			next := g.Spawn(entries[1])
			if lens, _ := g.PooledStacks(); len(lens) != 0 {
				t.Fatalf("Spawn did not draw from the pool: %v left", lens)
			}
			if err := g.Run(); err != nil {
				t.Fatal(err)
			}
			if got := code.DecodeInt(g.Prog.Repr, next.Result); next.Status != tasking.Done || got != 20*325 {
				t.Fatalf("task on the recycled stack: %v, result %d, want %d", next.Status, got, 20*325)
			}
		})
	}
}

// TestLoneTaskSliceLeavesInterleavingAlone runs the four entries with no
// Tick hook, so the long slice a lone task gets is in play once the others
// have finished, against the reference scheduler, which gives every turn one
// quantum. With two or more unfinished tasks every turn must still be one
// quantum, so each task executes the same instructions between the same
// collections: per-task steps, allocation and results, the group counters
// (suspension latencies included) and the heap counters are identical.
// (TestSchedulerOrderMatchesAllTaskScan covers the Tick-hook half: there the
// run is often down to one task and must stay turn-for-turn identical.)
func TestLoneTaskSliceLeavesInterleavingAlone(t *testing.T) {
	for _, allocs := range []bool{false, true} {
		t.Run(fmt.Sprintf("at-allocs=%v", allocs), func(t *testing.T) {
			run := func(sched func(*tasking.Group) error) string {
				g, entries, err := pipeline.BuildTaskGroup(schedSrc, schedEntries,
					pipeline.Options{Strategy: gc.StratCompiled, HeapWords: 2048, SuspendAtAllocs: allocs})
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					g.Spawn(e)
				}
				if err := g.RunInit(); err != nil {
					t.Fatal(err)
				}
				if err := sched(g); err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				for _, task := range g.Tasks {
					fmt.Fprintf(&b, "task %d: %v steps=%d alloc=%d calls=%d result=%d\n", task.ID, task.Status,
						task.Steps, task.AllocWords, task.Calls, code.DecodeInt(g.Prog.Repr, task.Result))
				}
				fmt.Fprintf(&b, "stats=%+v\nheap: allocs=%d words=%d copied=%d\n", g.Stats,
					g.Heap.Stats.Allocations, g.Heap.Stats.WordsAllocated, g.Heap.Stats.WordsCopied)
				return b.String()
			}
			want := run((*tasking.Group).RunScanningAllTasks)
			got := run((*tasking.Group).Run)
			if got != want {
				t.Fatalf("final state diverges:\n got:\n%s\n want:\n%s", got, want)
			}
			if strings.Contains(want, " Collections:0 ") {
				t.Error("run never collected")
			}
		})
	}
}

// TestStepLimitWithinOneQuantum: a task that never finishes must stop the
// group with the step-limit error no later than one quantum of virtual time
// past MaxSteps — alone on the queue (the long slice is cut at the limit),
// or with company.
func TestStepLimitWithinOneQuantum(t *testing.T) {
	const src = `
let rec spin n = if n = 0 then 0 else spin n
let forever () = spin 1
`
	for _, tasks := range []int{1, 3} {
		for _, limit := range []int64{10_000, 1_000_000} {
			g, entries, err := pipeline.BuildTaskGroup(src, []string{"forever"},
				pipeline.Options{Strategy: gc.StratCompiled, MaxSteps: limit})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tasks; i++ {
				g.Spawn(entries[0])
			}
			if err := g.RunInit(); err != nil {
				t.Fatal(err)
			}
			err = g.Run()
			if err == nil || !strings.Contains(err.Error(), "step limit exceeded") {
				t.Fatalf("%d tasks, limit %d: got %v, want the step-limit error", tasks, limit, err)
			}
			if now := g.Now(); now <= limit || now > limit+int64(g.Quantum) {
				t.Errorf("%d tasks, limit %d: stopped at virtual time %d, want within one quantum (%d) past the limit",
					tasks, limit, now, g.Quantum)
			}
			if tasks == 1 && g.Tasks[0].Steps != g.Now() {
				t.Errorf("limit %d: the lone task executed %d instructions in %d steps of virtual time",
					limit, g.Tasks[0].Steps, g.Now())
			}
		}
	}
}

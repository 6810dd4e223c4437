package tasking_test

import (
	"fmt"
	"reflect"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// sweepRun is what one run of the quantum sweep is judged by. counts holds,
// per task (the init task first), what the program alone determines —
// completed calls, closure calls, allocations and the stack's high-water
// marks; steps adds what the interleaving also determines: the instructions
// each task executed, re-executed suspension points included.
type sweepRun struct {
	values  []int64
	outputs []string
	counts  []string
	steps   []int64
	stats   tasking.Stats
	live    []int64
}

// sweep runs entries of src to completion with instruction slices of exactly
// quantum — the reference scheduler never lengthens a lone task's turn — or,
// when quantum is 0, on the real scheduler at its default quantum.
func sweep(t *testing.T, src string, entries []string, opts pipeline.Options, quantum int) sweepRun {
	t.Helper()
	g, idx, err := pipeline.BuildTaskGroup(src, entries, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range idx {
		g.Spawn(e)
	}
	if err := g.RunInit(); err != nil {
		t.Fatal(err)
	}
	if quantum == 0 {
		err = g.Run()
	} else {
		g.Quantum = quantum
		err = g.RunScanningAllTasks()
	}
	if err != nil {
		t.Fatal(err)
	}
	r := sweepRun{stats: g.Stats, live: g.Col.LiveSignature(g.Globals)}
	for _, task := range append([]*tasking.Task{g.InitTask()}, g.Tasks...) {
		if task.Status != tasking.Done {
			t.Fatalf("task %d: %v: %v", task.ID, task.Status, task.Err)
		}
		if task.ID >= 0 {
			r.values = append(r.values, code.DecodeInt(g.Prog.Repr, task.Result))
		}
		r.outputs = append(r.outputs, task.Out.String())
		r.counts = append(r.counts, fmt.Sprintf("calls=%d clos=%d allocs=%d words=%d stack=%d depth=%d",
			task.Calls, task.ClosCalls, task.Allocations, task.AllocWords, task.MaxStackWords, task.MaxFrameDepth))
		r.steps = append(r.steps, task.Steps)
	}
	return r
}

// TestQuantumSweep runs both corpora with instruction slices of 1, 2, 7 and
// 97 under both suspension policies, on the copying, mark/sweep and
// generational (nursery, allocation buffers and — for the task corpus — two
// shards) heaps, tag-free and tagged. A slice of one instruction makes every
// opcode a slice boundary and every event of the dispatch loop a re-entry, so
// loop state that is not written back to the task, or is read back stale,
// shows as a different result or count.
//
// A lone task meets the same collections at the same instructions whatever
// the slice, so a single-task program must repeat everything the real
// scheduler's run shows: values, output, every per-task count and the group's
// statistics. Several tasks interleave differently under each quantum — and
// re-execute a different number of suspended calls and allocations — so for
// them only the slice the scheduler itself uses must match in full; the other
// quanta must agree on what the programs determine.
func TestQuantumSweep(t *testing.T) {
	type cell struct {
		name       string
		opts       pipeline.Options
		taskShards int
	}
	cells := []cell{
		{name: "copying", opts: pipeline.Options{Strategy: gc.StratCompiled}},
		{name: "tagged", opts: pipeline.Options{Strategy: gc.StratTagged}},
		{name: "marksweep", opts: pipeline.Options{Strategy: gc.StratCompiled, MarkSweep: true}},
		{name: "nursery-tlab", opts: pipeline.Options{Strategy: gc.StratCompiled, NurseryWords: 256, TLABWords: 64}, taskShards: 2},
	}
	quanta := []int{1, 2, 7, 97}
	if testing.Short() {
		quanta = []int{1, 97}
	}
	type program struct {
		name, src string
		entries   []string
		expect    []int64
		heap      int
	}
	var progs []program
	for _, w := range workloads.All {
		progs = append(progs, program{w.Name, w.Source, []string{"main"}, []int64{w.Expect}, w.HeapWords})
	}
	for _, w := range workloads.Tasking {
		progs = append(progs, program{w.Name, w.Source, w.Entries, w.Expect, w.HeapWords})
	}
	for _, c := range cells {
		for _, atAllocs := range []bool{false, true} {
			for _, p := range progs {
				opts := c.opts
				opts.HeapWords, opts.SuspendAtAllocs = p.heap, atAllocs
				lone := len(p.entries) == 1
				if !lone {
					opts.Shards = c.taskShards
				}
				name := fmt.Sprintf("%s/at-allocs=%v/%s", c.name, atAllocs, p.name)
				base := sweep(t, p.src, p.entries, opts, 0)
				for i, e := range p.expect {
					if got := base.values[i]; got != e {
						t.Errorf("%s: task %d = %d, want %d", name, i, got, e)
					}
				}
				for _, q := range quanta {
					got := sweep(t, p.src, p.entries, opts, q)
					if lone || q == 97 {
						if !reflect.DeepEqual(got, base) {
							t.Errorf("%s: quantum %d differs from the scheduler's run:\n got %+v\nwant %+v", name, q, got, base)
						}
						continue
					}
					var sum int64
					for _, s := range got.steps {
						sum += s
					}
					if sum != got.stats.Instructions {
						t.Errorf("%s: quantum %d: the tasks executed %d instructions, the group counted %d", name, q, sum, got.stats.Instructions)
					}
					got.steps, got.stats = base.steps, base.stats
					if !reflect.DeepEqual(got, base) {
						t.Errorf("%s: quantum %d changed what the programs compute:\n got %+v\nwant %+v", name, q, got, base)
					}
				}
			}
		}
	}
}

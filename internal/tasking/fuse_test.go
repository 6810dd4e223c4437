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

// fusedRun is what TestFusedHeadsRunAsTheirParts compares: everything a run
// reports, and a hash of every task's (pc, fp, sp) at the end of every slice.
type fusedRun struct {
	values  []int64
	outputs []string
	counts  []string
	stats   tasking.Stats
	live    []int64
	slices  uint64
}

// runFused runs entries of src with the superinstruction heads codegen wrote,
// or with the code unfused, on the reference scheduler with slices of quantum
// instructions — or, at quantum 0, on the real scheduler.
func runFused(t *testing.T, src string, entries []string, opts pipeline.Options, quantum int, fused bool) (fusedRun, *code.Program) {
	t.Helper()
	g, idx, err := pipeline.BuildTaskGroup(src, entries, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !fused {
		code.Unfuse(g.Prog.Code)
	}
	for _, e := range idx {
		g.Spawn(e)
	}
	if err := g.RunInit(); err != nil {
		t.Fatal(err)
	}
	h := uint64(14695981039346656037)
	if quantum == 0 {
		err = g.Run()
	} else {
		g.Quantum = quantum
		err = g.RunScanningAllTasksVisiting(func(task *tasking.Task) {
			pc, fp, sp := task.Frame()
			for _, w := range [...]int{task.ID, pc, fp, sp} {
				h = (h ^ uint64(w)) * 1099511628211 // FNV-1a, a word at a time
			}
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	r := fusedRun{stats: g.Stats, live: g.Col.LiveSignature(g.Globals), slices: h}
	for _, task := range append([]*tasking.Task{g.InitTask()}, g.Tasks...) {
		if task.Status != tasking.Done {
			t.Fatalf("task %d: %v: %v", task.ID, task.Status, task.Err)
		}
		if task.ID >= 0 {
			r.values = append(r.values, code.DecodeInt(g.Prog.Repr, task.Result))
		}
		r.outputs = append(r.outputs, task.Out.String())
		r.counts = append(r.counts, fmt.Sprintf("steps=%d calls=%d clos=%d allocs=%d words=%d stack=%d depth=%d",
			task.Steps, task.Calls, task.ClosCalls, task.Allocations, task.AllocWords, task.MaxStackWords, task.MaxFrameDepth))
	}
	return r, g.Prog
}

// comparesSrc branches on every comparison, the two the corpora never use
// included, next to list walks and joins, and returns from its root frame
// through a join.
const comparesSrc = `
let rec upto n = if n <= 0 then [] else n :: upto (n - 1)
let sign a b = if a < b then 0 - 1 else if a > b then 1 else 0
let rank a b = if a <> b then (if a >= b then 2 else 3) else if a = b then 4 else 5
let rec walk xs acc = match xs with
  | [] -> acc
  | x :: r -> let y = x in walk r (acc + sign y 7 + rank y 9)
let main () = let v = walk (upto 40) 0 in if v > 0 then v else 0 - v
`

// TestFusedHeadsRunAsTheirParts runs every program of both corpora with the
// superinstruction heads codegen writes and with the same code unfused, tag-free
// and tagged, on the copying, mark/sweep and nursery + allocation buffer (+ two
// shards, for the task corpus) heaps, with slices of 1, 2, 3 and 97 instructions
// on the reference scheduler and on the real one. A head counts as its parts and
// falls back to its first part where the slice cannot take the whole sequence —
// at a slice of one, always; of two, for every three-part head — so the two runs
// must agree on everything: values, output, every per-task counter, the group's
// statistics, the live signature and where every slice ended.
func TestFusedHeadsRunAsTheirParts(t *testing.T) {
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
	quanta := []int{0, 1, 2, 3, 97}
	if testing.Short() {
		quanta = []int{0, 2, 97}
	}
	type program struct {
		name, src string
		entries   []string
		heap      int
	}
	var progs []program
	for _, w := range workloads.All {
		progs = append(progs, program{w.Name, w.Source, []string{"main"}, w.HeapWords})
	}
	for _, w := range workloads.Tasking {
		progs = append(progs, program{w.Name, w.Source, w.Entries, w.HeapWords})
	}
	progs = append(progs, program{"compares", comparesSrc, []string{"main"}, 1 << 10})
	heads := map[code.Op]int{}
	for _, c := range cells {
		for _, p := range progs {
			opts := c.opts
			opts.HeapWords = p.heap
			if len(p.entries) > 1 {
				opts.Shards = c.taskShards
			}
			for _, q := range quanta {
				name := fmt.Sprintf("%s/%s/quantum=%d", c.name, p.name, q)
				fused, prog := runFused(t, p.src, p.entries, opts, q, true)
				unfused, _ := runFused(t, p.src, p.entries, opts, q, false)
				if q == 0 {
					for pc := 0; pc < len(prog.Code); pc += code.InstrLen(prog.Code, pc) {
						if op := prog.Code[pc]; code.FirstPart(op) != op {
							heads[op]++
						}
					}
				}
				if !reflect.DeepEqual(fused, unfused) {
					t.Errorf("%s: the fused program differs from its parts:\n fused %+v\nparts %+v", name, fused, unfused)
				}
			}
		}
	}
	for _, op := range []code.Op{code.OpEqJz, code.OpNeJz, code.OpLtJz, code.OpLeJz, code.OpGtJz, code.OpGeJz,
		code.OpIsBoxedJz, code.OpTagIsJz, code.OpMoveRet, code.OpLdFldMove} {
		if heads[op] == 0 {
			t.Errorf("no program of the corpora has a head %d (first part %s): the test does not run it", op, code.OpName(op))
		}
	}
}

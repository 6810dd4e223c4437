package pipeline

// Counts and heap images. The allocating instructions are implemented inside
// the dispatch loop and settle their counters when the loop is left (DESIGN.md
// §15), so what must not move is every count an allocation feeds and every
// word it writes. testdata/alloc_counts.golden was recorded at 9fbb143, the
// commit before the allocation path was replaced, by this file run there
// (go test ./internal/pipeline -run AllocCountsGolden -update): a counter
// settled one object late, a granted retry counted twice or two objects laid
// out in the other order is a changed line here, not a changed latency in
// internal/serve/testdata/golden.json three packages away.

import (
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// allocCountConfigs are the heaps and policies-of-the-gate an allocation can
// meet: each is a different answer to "how long is the window".
var allocCountConfigs = []struct {
	name string
	opts Options
}{
	{"copying", Options{}},
	{"marksweep", Options{MarkSweep: true}},
	{"nursery", Options{NurseryWords: 256}},
	{"tlab", Options{TLABWords: 64}},
	{"nursery+tlab+shards", Options{NurseryWords: 256, TLABWords: 64, Shards: 2}},
	{"budgets", Options{BudgetSteps: 60_000, BudgetAllocWords: 6_000}},
	{"fail-every", Options{FailAllocEvery: 7}},
	{"fail-refills", Options{TLABWords: 64, FailAllocEvery: 3, FailRefillsOnly: true}},
	{"torture", Options{Torture: true}},
	{"tlab-small", Options{TLABWords: 8}},
	{"nursery+tlab-small", Options{NurseryWords: 256, TLABWords: 8}},
}

// wideTuplesSrc is the program the corpus lacks: objects wider than a small
// buffer chunk (the ten-tuple) between objects that fit one (the pairs and
// list cells), so under the *-small rows a slice opens the shared heap and a
// buffer by turns.
const wideTuplesSrc = `
let rec build n acc =
  if n = 0 then acc
  else (let w = (n, n + 1, n + 2, n + 3, n + 4, n + 5, n + 6, n + 7, n + 8, n + 9) in
        match w with | (a, _, _, _, _, _, _, _, _, j) -> build (n - 1) ((a, j) :: acc))
let rec sum xs = match xs with | [] -> 0 | (a, j) :: r -> a + j + sum r
let round () = sum (build 30 [])
let rec rounds k acc = if k = 0 then acc else rounds (k - 1) (acc + round ())
let main () = rounds 40 0
let wide_a () = rounds 30 0
let wide_b () = rounds 20 1
`

var (
	allocCountPrograms = append(workloads.All[:len(workloads.All):len(workloads.All)],
		workloads.Workload{Name: "widetuples", Source: wideTuplesSrc, HeapWords: 1 << 10})
	allocCountTasking = append(workloads.Tasking[:len(workloads.Tasking):len(workloads.Tasking)],
		workloads.TaskWorkload{Name: "taskwide", Source: wideTuplesSrc, Entries: []string{"wide_a", "wide_b"}, HeapWords: 1 << 11})
)

// tortureAllocLimit keeps the torture rows to the programs that allocate
// little enough for a collection per allocation to stay cheap in tier-1.
const tortureAllocLimit = 20_000

func hashWords(ws []code.Word) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range ws {
		for i := range b {
			b[i] = byte(uint64(w) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// nonzero renders every field of a struct of counters that is not zero, so a
// line is as long as what happened and a new field joins it unasked.
func nonzero(v any) string {
	var b strings.Builder
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); !f.IsZero() {
			fmt.Fprintf(&b, " %s:%v", rv.Type().Field(i).Name, f.Interface())
		}
	}
	return "{" + strings.TrimSpace(b.String()) + "}"
}

// allocCountLine runs one configuration to the end and renders everything an
// allocation can move as one line.
func allocCountLine(g *tasking.Group, spawn []int) string {
	for _, e := range spawn {
		g.Spawn(e)
	}
	var b strings.Builder
	if err := g.RunInit(); err != nil {
		fmt.Fprintf(&b, "init-err=%q ", err)
	}
	// The live structure before every collection, in order. RunInit armed the
	// buffers' retirement hook, which must still run first.
	sigs, nsigs := fnv.New64a(), 0
	retire := g.Col.PreCollect
	g.Col.PreCollect = func(tasks []gc.TaskRoots) {
		if retire != nil {
			retire(tasks)
		}
		fmt.Fprintln(sigs, hashWords(g.Col.LiveSignature(g.Globals)))
		nsigs++
	}
	if b.Len() == 0 {
		if err := g.Run(); err != nil {
			fmt.Fprintf(&b, "run-err=%q ", err)
		}
	}
	tasks := append([]*tasking.Task{g.InitTask()}, g.Tasks...)
	for _, t := range tasks {
		fmt.Fprintf(&b, "task%d{%v steps=%d allocs=%d words=%d calls=%d tlab=%s} ",
			t.ID, t.Status, t.Steps, t.Allocations, t.AllocWords, t.Calls+t.ClosCalls, nonzero(t.TLAB))
		if t.Fault != nil {
			fmt.Fprintf(&b, "fault%d{%v pc=%d size=%d} ", t.ID, t.Fault.Kind, t.Fault.PC, t.Fault.AllocSize)
		}
	}
	records := fnv.New64a()
	for _, r := range g.Col.Telem.Records {
		fmt.Fprintln(records, r.Kind, r.UsedBefore, r.LiveWords, r.WordsVisited, r.FramesTraced, r.SlotsTraced)
	}
	latency, latencySum := fnv.New64a(), int64(0)
	for _, l := range g.Stats.SuspendLatency {
		fmt.Fprintln(latency, l)
		latencySum += l
	}
	fmt.Fprintf(&b, "rgc=%d instr=%d coll=%d latency=%d:%d:%x heap=%s resilience=%s records=%d:%x sigs=%d:%x active=%x mem=%x",
		g.Stats.RgcChecks, g.Stats.Instructions, g.Stats.Collections, len(g.Stats.SuspendLatency), latencySum, latency.Sum64(),
		nonzero(g.Heap.Stats), nonzero(g.Col.Telem.Resilience), len(g.Col.Telem.Records), records.Sum64(), nsigs, sigs.Sum64(),
		hashWords(g.Heap.ActiveSnapshot()), hashWords(g.Heap.MemSnapshot()))
	return b.String()
}

func TestAllocCountsGolden(t *testing.T) {
	const path = "testdata/alloc_counts.golden"
	var out strings.Builder
	line := func(key string, g *tasking.Group, spawn []int) {
		fmt.Fprintf(&out, "%s: %s\n", key, allocCountLine(g, spawn))
	}
	for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratTagged} {
		for _, cfg := range allocCountConfigs {
			for _, w := range allocCountPrograms {
				opts := cfg.opts
				opts.Strategy, opts.HeapWords = strat, w.HeapWords
				if len(opts.violated(true)) > 0 {
					continue
				}
				prog, _, err := Build(w.Source, opts)
				if err != nil {
					t.Fatal(err)
				}
				if opts.Torture {
					plain, err := RunProgram(prog, nil, Options{Strategy: strat, HeapWords: w.HeapWords})
					if err != nil {
						t.Fatal(err)
					}
					if plain.HeapStats.Allocations > tortureAllocLimit {
						continue
					}
				}
				g, err := newGroup(prog, opts, true)
				if err != nil {
					t.Fatal(err)
				}
				g.Policy = tasking.SuspendAtAllocs
				line(fmt.Sprintf("%s/%v/%s", w.Name, strat, cfg.name), g, []int{prog.MainFunc})
			}
			for _, w := range allocCountTasking {
				for _, atAllocs := range []bool{false, true} {
					opts := cfg.opts
					opts.Strategy, opts.HeapWords, opts.SuspendAtAllocs = strat, w.HeapWords, atAllocs
					if len(opts.Refusals()) > 0 {
						continue
					}
					g, entries, err := BuildTaskGroup(w.Source, w.Entries, opts)
					if err != nil {
						t.Fatal(err)
					}
					policy := "at-calls"
					if atAllocs {
						policy = "at-allocs"
					}
					line(fmt.Sprintf("%s/%v/%s/%s", w.Name, strat, cfg.name, policy), g, entries)
				}
			}
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d runs, the golden has %d", len(gl)-1, len(wl)-1)
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("counts or heap image differ:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}

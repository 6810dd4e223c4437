package pipeline

// One machine. A single-task run is a task group of one, so: the
// single-task corpus still computes, collects and traces what it did on the
// interpreter this replaced (vm.loop — the golden was recorded at the commit
// before its deletion); and the behaviours that had drifted apart between
// the two interpreters are the same on both paths because there is one path
// — frame zero-fill under DisableLiveness and the resilience counters'
// meaning.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"tagfree/internal/gc"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// singleTaskGoldenFile was recorded at 97b7e9d, the commit before vm.loop was
// deleted, by the loop below run on that interpreter. It cannot be recorded
// again — the interpreter it describes is gone — so nothing rewrites it.
const singleTaskGoldenFile = "testdata/single_task_parent.json"

// singleTaskRun is what one run of one program pins. The per-collection
// (before, live, words, frames, slots) stream is held as its length, its
// column sums — so a mismatch names the column that moved — and an FNV-1a
// hash of the rows in order.
type singleTaskRun struct {
	Value        int64    `json:"value"`
	Output       string   `json:"output"`
	Collections  int      `json:"collections"`
	RecordSums   [5]int64 `json:"record_sums"`
	RecordsFNV   uint64   `json:"records_fnv"`
	Instructions int64    `json:"instructions"`
	Calls        int64    `json:"calls"`
	ClosCalls    int64    `json:"clos_calls"`
	Allocations  int64    `json:"allocations"`
	MaxStack     int      `json:"max_stack_words"`
	ZeroFilled   int64    `json:"zero_filled_words"`
}

// holeRows are the mark/sweep runs whose per-collection stream no longer
// matches the golden, each with the record columns that moved; the hash of the
// stream is not compared for them, every other field is. The recorded
// interpreter's heap bumped until its tail was too short, then reused freed
// blocks of exactly the object's size, and came back to the tail for any
// smaller object. Holes (internal/heap/marksweep.go) take any object that fits
// and are not left for the tail, so where object sizes mix, a small object
// fills a hole where it filled the tail's last words — the high-water mark
// (UsedBefore, column 0) ends a few words lower — or the heap fills at
// another instruction: cps collects as often, at other points (live, visited,
// frames, slots), and polypipe's second collection sees one frame fewer.
var holeRows = map[string][]int{
	"closures/appel/marksweep": {0}, "closures/compiled/marksweep": {0}, "closures/interp/marksweep": {0},
	"thunks/appel/marksweep": {0}, "thunks/compiled/marksweep": {0}, "thunks/interp/marksweep": {0},
	"polypipe/appel/marksweep": {0}, "polypipe/compiled/marksweep": {0, 3}, "polypipe/interp/marksweep": {0, 3},
	"cps/compiled/marksweep": {1, 2, 3, 4}, "cps/interp/marksweep": {1, 2, 3, 4},
}

func TestSingleTaskMatchesParentGolden(t *testing.T) {
	disciplines := []struct {
		name string
		opts Options
	}{
		{"copying", Options{}},
		{"marksweep", Options{MarkSweep: true}},
		{"nursery256", Options{NurseryWords: 256}},
	}
	got := map[string]singleTaskRun{}
	suspended := map[string]int64{}
	for _, w := range workloads.All {
		for _, strat := range Strategies {
			for _, d := range disciplines {
				if strat == gc.StratTagged && d.name != "copying" {
					continue // refused: both need a tag-free strategy
				}
				opts := d.opts
				opts.Strategy, opts.HeapWords = strat, w.HeapWords
				key := fmt.Sprintf("%s/%v/%s", w.Name, strat, d.name)
				res, err := Run(w.Source, opts)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				run := singleTaskRun{
					Value: res.Value, Output: res.Output, Collections: len(res.Telemetry.Records),
					Instructions: res.VMStats.Instructions, Calls: res.VMStats.Calls, ClosCalls: res.VMStats.ClosCalls,
					Allocations: res.VMStats.Allocations, MaxStack: res.VMStats.MaxStackWords, ZeroFilled: res.VMStats.ZeroFilledWords,
				}
				h := fnv.New64a()
				for _, r := range res.Telemetry.Records {
					row := [5]int64{int64(r.UsedBefore), r.LiveWords, r.WordsVisited, r.FramesTraced, r.SlotsTraced}
					for i, v := range row {
						run.RecordSums[i] += v
					}
					fmt.Fprintln(h, row)
				}
				run.RecordsFNV = h.Sum64()
				got[key] = run
				suspended[key] = res.Telemetry.Resilience.EmergencyCollections
			}
		}
	}
	data, err := os.ReadFile(singleTaskGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]singleTaskRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, the golden has %d", len(got), len(want))
	}
	for key, w := range want {
		g := got[key]
		// An allocation that finds the heap full suspends its task and is
		// executed again after the collection; the parent's loop collected
		// inside the instruction and counted it once.
		w.Instructions += suspended[key]
		if cols, ok := holeRows[key]; ok {
			for _, c := range cols {
				g.RecordSums[c] = w.RecordSums[c]
			}
			g.RecordsFNV = w.RecordsFNV
		}
		if g != w {
			t.Errorf("%s:\n got %+v\nwant %+v", key, g, w)
		}
	}
}

// TestStepLimitBoundsTopLevelCode: MaxSteps bounds the init function as it
// bounds main. A diverging top-level binding must fail with the step limit
// (the REPL relies on it: every evaluation re-runs the declarations before
// it), not grow the task stack until memory runs out.
func TestStepLimitBoundsTopLevelCode(t *testing.T) {
	const src = `
let rec spin n = 1 + spin (n + 1)
let x = spin 0
let main () = x
`
	for _, limit := range []int64{10_000, 1_000_000, 1_000_001} {
		_, err := Run(src, Options{Strategy: gc.StratCompiled, MaxSteps: limit})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("step limit exceeded (%d)", limit)) {
			t.Fatalf("MaxSteps %d: got %v, want the step limit error", limit, err)
		}
	}
	// A limit the top-level code fits under is not charged to main twice.
	res, err := Run("let x = 1 + 2\nlet main () = x", Options{Strategy: gc.StratCompiled, MaxSteps: 1_000})
	if err != nil || res.Value != 3 {
		t.Fatalf("got %v, %v; want 3", res, err)
	}
}

// TestSingleTaskHonoursTaskOptions: the options that shape how a task
// allocates and how long it may run mean the same thing for main as for any
// task — none is dropped on the way to the group of one. Shards is the one
// refusal: one mutator has nothing to overlap a shard's collection with.
func TestSingleTaskHonoursTaskOptions(t *testing.T) {
	w, _ := workloads.ByName("listchurn")
	base := Options{Strategy: gc.StratCompiled, HeapWords: w.HeapWords, VerifyHeap: true}

	opts := base
	opts.TLABWords = 32
	res, err := Run(w.Source, opts)
	if err != nil || res.Value != w.Expect {
		t.Fatalf("TLABWords: got %v, %v; want %d", res, err, w.Expect)
	}
	if res.HeapStats.SharedAllocs*4 >= res.HeapStats.Allocations {
		t.Fatalf("TLABWords: %d shared acquisitions for %d allocations — no buffer in use",
			res.HeapStats.SharedAllocs, res.HeapStats.Allocations)
	}

	opts = base
	opts.BudgetSteps = 1_000
	if _, err := Run(w.Source, opts); err == nil || !strings.Contains(err.Error(), "step budget exhausted") {
		t.Fatalf("BudgetSteps: got %v, want the budget fault", err)
	}
	opts = base
	opts.BudgetAllocWords = 100
	if _, err := Run(w.Source, opts); err == nil || !strings.Contains(err.Error(), "allocation budget exhausted") {
		t.Fatalf("BudgetAllocWords: got %v, want the budget fault", err)
	}

	opts = base
	opts.NurseryWords, opts.Shards = 256, 2
	if _, err := Run(w.Source, opts); err == nil || !strings.Contains(err.Error(), "heap sharding requires the tasking runtime") {
		t.Fatalf("Shards: got %v, want the refusal", err)
	}
}

// TestResilienceCountersSameOnBothPaths: Run and a one-task RunTasks of the
// same program are the same machine under the same policy, so they count
// the same emergency collections and ladder outcomes — plain, with injected
// failures and under torture.
func TestResilienceCountersSameOnBothPaths(t *testing.T) {
	w, _ := workloads.ByName("listchurn")
	faults := map[string]Options{
		"plain":    {},
		"injected": {FailAllocEvery: 40},
		"torture":  {Torture: true},
		"growth":   {HeapWords: 64, GrowFactor: 2},
	}
	for name, opts := range faults {
		t.Run(name, func(t *testing.T) {
			opts.Strategy = gc.StratCompiled
			if opts.HeapWords == 0 {
				opts.HeapWords = w.HeapWords
			}
			single, err := Run(w.Source, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.SuspendAtAllocs = true
			group, err := RunTasks(w.Source, []string{"main"}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if single.Value != w.Expect || group.Values[0] != w.Expect || group.Group.Tasks[0].Status != tasking.Done {
				t.Fatalf("values %d and %d, want %d", single.Value, group.Values[0], w.Expect)
			}
			s, g := single.Telemetry.Resilience, group.Telemetry.Resilience
			if s != g {
				t.Fatalf("resilience counters differ:\n single-task %+v\n one-task group %+v", s, g)
			}
			if s.EmergencyCollections == 0 && s.TortureCollections == 0 {
				t.Fatal("the run never needed a collection")
			}
			// The third convention (DESIGN.md §11): the attempt that finds
			// the heap full is a shared-heap acquisition too.
			if single.HeapStats.SharedAllocs != group.Heap.SharedAllocs {
				t.Fatalf("shared acquisitions differ: single-task %d, one-task group %d",
					single.HeapStats.SharedAllocs, group.Heap.SharedAllocs)
			}
			if want := single.HeapStats.Allocations + s.EmergencyCollections; name == "plain" && single.HeapStats.SharedAllocs != want {
				t.Fatalf("%d shared acquisitions, want %d allocations + %d failed attempts",
					single.HeapStats.SharedAllocs, single.HeapStats.Allocations, s.EmergencyCollections)
			}
			if table := TelemetryTable(single.Telemetry, TelemetryOptions{OmitTiming: true}); table !=
				TelemetryTable(group.Telemetry, TelemetryOptions{OmitTiming: true}) {
				t.Fatalf("telemetry tables differ; single-task:\n%s", table)
			}
		})
	}
}

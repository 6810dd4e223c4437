package pipeline

import (
	"strings"
	"testing"

	"tagfree/internal/gc"
)

func eval(t *testing.T, src string) *EvalResult {
	t.Helper()
	res, err := Eval(src, Options{Strategy: gc.StratCompiled, HeapWords: 2048})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return res
}

func TestRenderBaseValues(t *testing.T) {
	cases := []struct{ src, value, typ string }{
		{`let main () = 42`, "42", "int"},
		{`let main () = 0 - 7`, "-7", "int"},
		{`let main () = 1 < 2`, "true", "bool"},
		{`let main () = ()`, "()", "unit"},
		{`let main () = "hi"`, `"hi"`, "string"},
	}
	for _, c := range cases {
		res := eval(t, c.src)
		if res.Value != c.value || res.Type != c.typ {
			t.Errorf("%s: got %s : %s, want %s : %s", c.src, res.Value, res.Type, c.value, c.typ)
		}
	}
}

func TestRenderStructures(t *testing.T) {
	cases := []struct{ src, value, typ string }{
		{`let main () = [1; 2; 3]`, "[1; 2; 3]", "int list"},
		{`let main () = []`, "[]", "'a list"},
		{`let main () = (1, true)`, "(1, true)", "int * bool"},
		{`let main () = ref 9`, "ref (9)", "int ref"},
		{`let main () = [(1, false)]`, "[(1, false)]", "(int * bool) list"},
		{`let main () = [[1]; []]`, "[[1]; []]", "int list list"},
		{`let main () = fun x -> x`, "<fun>", "'a -> 'a"},
	}
	for _, c := range cases {
		res := eval(t, c.src)
		if res.Value != c.value || res.Type != c.typ {
			t.Errorf("%s: got %s : %s, want %s : %s", c.src, res.Value, res.Type, c.value, c.typ)
		}
	}
}

func TestRenderDatatypes(t *testing.T) {
	res := eval(t, `
type shape = Point | Circle of int | Rect of int * int
let main () = [Point; Circle 3; Rect (4, 5)]
`)
	if res.Value != "[Point; Circle (3); Rect (4, 5)]" {
		t.Errorf("got %s", res.Value)
	}
	if res.Type != "shape list" {
		t.Errorf("type %s", res.Type)
	}

	res = eval(t, `
type tree = Leaf | Node of tree * int * tree
let main () = Node (Node (Leaf, 1, Leaf), 2, Leaf)
`)
	if res.Value != "Node (Node (Leaf, 1, Leaf), 2, Leaf)" {
		t.Errorf("got %s", res.Value)
	}
}

func TestRenderSurvivesCollection(t *testing.T) {
	// The rendered structure is built across several collections; the
	// renderer reads the post-GC heap.
	res, err := Eval(`
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec churn n = if n = 0 then 0 else (let _ = upto 20 in churn (n - 1))
let main () =
  let keep = upto 5 in
  let _ = churn 50 in
  keep
`, Options{Strategy: gc.StratCompiled, HeapWords: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "[5; 4; 3; 2; 1]" {
		t.Errorf("got %s", res.Value)
	}
	if res.Result.HeapStats.Collections == 0 {
		t.Error("test should have collected")
	}
}

func TestRenderLongListTruncates(t *testing.T) {
	res := eval(t, `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let main () = upto 50
`)
	if len(res.Value) > 200 {
		t.Errorf("long list not truncated: %s", res.Value)
	}
}

// ---------------------------------------------------------------------------
// Telemetry golden tests. OmitTiming strips every pause field, so the
// emitted table and JSON depend only on the program, strategy and heap
// discipline — fully deterministic.
// ---------------------------------------------------------------------------

const telemetrySrc = `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let round () = sum (upto 30)
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 24 0
`

func TestTelemetryTableGoldenCopying(t *testing.T) {
	res, err := Run(telemetrySrc, Options{Strategy: gc.StratCompiled, HeapWords: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 11160 {
		t.Fatalf("value = %d, want 11160", res.Value)
	}
	got := TelemetryTable(res.Telemetry, TelemetryOptions{OmitTiming: true})
	want := `gc telemetry: strategy=compiled kind=copying collections=5
seq  before  live  surv%  words  frames  slots  flhit%
  0     256    16    6.2     16      29      1       -
  1     256    16    6.2     16      33      1       -
  2     256    16    6.2     16      37      1       -
  3     256    16    6.2     16      41      1       -
  4     256    16    6.2     16      45      1       -
survivor histogram: 0-10%=5
fast path: plan-hits=179 plan-misses=6 site-cache-hits=179 kernel-words=80
resilience: injected-ooms=0 torture-collections=0 emergency-collections=5 ladder-recovered=5 ladder-exhausted=0 heap-growths=0 task-faults=0 budget-faults=0
`
	if got != want {
		t.Errorf("table mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestTelemetryTableGoldenMarkSweep(t *testing.T) {
	res, err := Run(telemetrySrc, Options{Strategy: gc.StratCompiled, HeapWords: 256, MarkSweep: true})
	if err != nil {
		t.Fatal(err)
	}
	got := TelemetryTable(res.Telemetry, TelemetryOptions{OmitTiming: true})
	// The free-list hit rate starts at 0 (first interval allocates from the
	// pristine region) then goes to 100: after the first sweep every
	// allocation is laid in a hole the sweep left.
	want := `gc telemetry: strategy=compiled kind=mark/sweep collections=5
seq  before  live  surv%  words  frames  slots  flhit%
  0     256    16    6.2     16      29      1     0.0
  1     256    16    6.2     16      33      1   100.0
  2     256    16    6.2     16      37      1   100.0
  3     256    16    6.2     16      41      1   100.0
  4     256    16    6.2     16      45      1   100.0
survivor histogram: 0-10%=5
fast path: plan-hits=179 plan-misses=6 site-cache-hits=179 kernel-words=80
resilience: injected-ooms=0 torture-collections=0 emergency-collections=5 ladder-recovered=5 ladder-exhausted=0 heap-growths=0 task-faults=0 budget-faults=0
`
	if got != want {
		t.Errorf("table mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestTelemetryTableGoldenGenerational pins the generational columns: with
// a nursery every collection carries a kind, and the table grows kind,
// prom, rem and barrier columns. Every minor promotes what survives it: the
// long-lived ref cell at seq 0, then — after one barrier hit repoints the
// cell at a fresh young list (seq 1) — the list itself, through the spine
// kernel like a stack root's, so the remembered set is empty again after
// the collection that traced its one entry.
func TestTelemetryTableGoldenGenerational(t *testing.T) {
	src := `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec churn n = if n = 0 then 0 else (let _ = upto 20 in churn (n - 1))
let main () =
  let keep = ref [0] in
  let _ = churn 5 in
  let _ = (keep := upto 10) in
  let _ = churn 5 in
  sum (!keep)
`
	res, err := Run(src, Options{Strategy: gc.StratCompiled, HeapWords: 512, NurseryWords: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 55 {
		t.Fatalf("value = %d, want 55", res.Value)
	}
	got := TelemetryTable(res.Telemetry, TelemetryOptions{OmitTiming: true})
	want := `gc telemetry: strategy=compiled kind=copying collections=3
seq   kind  before  live  surv%  words  frames  slots  flhit%  prom  rem  barrier
  0  minor     127     7    5.5      7      23      2       -     7    0        0
  1  minor     135    59   43.7     52       6      3       -    52    0        1
  2  minor     187    59   31.6      0      26      2       -     0    0        0
survivor histogram: 0-10%=1 30-40%=1 40-50%=1
fast path: plan-hits=49 plan-misses=6 site-cache-hits=49 kernel-words=56
resilience: injected-ooms=0 torture-collections=0 emergency-collections=3 ladder-recovered=3 ladder-exhausted=0 heap-growths=0 task-faults=0 budget-faults=0
`
	if got != want {
		t.Errorf("table mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestTelemetryTableGoldenTLAB pins the allocation-buffer columns: with
// -tlab set on a tasking run, each record grows refill/fast/shared/waste
// deltas and the summary gains the cumulative tlab line with the
// shared-acquisition ratio. With -tlab 0 none of this renders (pinned by
// the other goldens and TestTLABDisabledLeavesTelemetryClean).
func TestTelemetryTableGoldenTLAB(t *testing.T) {
	src := `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec churn n = if n = 0 then 0 else (let _ = upto 20 in churn (n - 1))
let task_a () = let _ = churn 6 in sum (upto 10)
let task_b () = let _ = churn 6 in sum (upto 20)
`
	res, err := RunTasks(src, []string{"task_a", "task_b"}, Options{
		Strategy: gc.StratCompiled, HeapWords: 512, TLABWords: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 55 || res.Values[1] != 210 {
		t.Fatalf("values = %v, want [55 210]", res.Values)
	}
	got := TelemetryTable(res.Telemetry, TelemetryOptions{OmitTiming: true})
	want := `gc telemetry: strategy=compiled kind=copying collections=1
seq  before  live  surv%  words  frames  slots  flhit%  refills  fast  shared  waste
  0     496    16    3.2     16       8      1       -       16   248      17      0
survivor histogram: 0-10%=1
fast path: plan-hits=4 plan-misses=4 site-cache-hits=4 kernel-words=16
tlab: refills=19 refill-words=608 fast-allocs=270 shared-allocs=20 waste-words=28 returned-words=40 shared-ratio=0.069
resilience: injected-ooms=0 torture-collections=0 emergency-collections=1 ladder-recovered=1 ladder-exhausted=0 heap-growths=0 task-faults=0 budget-faults=0
`
	if got != want {
		t.Errorf("table mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestTelemetryJSONGolden(t *testing.T) {
	src := strings.Replace(telemetrySrc, "loop 24 0", "loop 6 0", 1)
	res, err := Run(src, Options{Strategy: gc.StratCompiled, HeapWords: 256})
	if err != nil {
		t.Fatal(err)
	}
	got, err := TelemetryJSON(res.Telemetry, TelemetryOptions{OmitTiming: true})
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "strategy": "compiled",
  "kind": "copying",
  "records": [
    {
      "seq": 0,
      "pause_ns": 0,
      "used_before": 256,
      "live_words": 16,
      "survivor_pct": 6.25,
      "words_visited": 16,
      "frames_traced": 29,
      "slots_traced": 1,
      "plan_hits": 23,
      "plan_misses": 6,
      "site_cache_hits": 23,
      "kernel_words": 16,
      "free_list_hit_pct": -1,
      "tasks": [
        {
          "task": 0,
          "frames": 29,
          "slots": 1,
          "objects": 8,
          "words": 16
        }
      ]
    }
  ],
  "pause_hist": [
    0,
    0,
    0,
    0,
    0,
    0,
    0
  ],
  "survivor_hist": [
    1,
    0,
    0,
    0,
    0,
    0,
    0,
    0,
    0,
    0
  ],
  "resilience": {
    "emergency_collections": 1,
    "ladder_recovered": 1
  }
}`
	if string(got) != want {
		t.Errorf("json mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The sanitized copy must not leak back: the live Telemetry keeps its
	// real pause numbers.
	total := res.Telemetry.TotalPauseNS()
	if len(res.Telemetry.Records) != 1 {
		t.Fatalf("expected 1 collection, got %d", len(res.Telemetry.Records))
	}
	_ = total // pauses may legitimately round to 0ns on coarse clocks
}

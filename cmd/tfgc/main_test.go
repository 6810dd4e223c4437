package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/serve"
	"tagfree/internal/workloads"
)

// writeProg drops MinML source in a temp dir and returns its path.
func writeProg(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.ml")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const churnSrc = `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec work rounds acc =
  if rounds = 0 then acc
  else work (rounds - 1) (acc + sum (upto 20))
let main () = work 30 0
`

// run invokes the cli and returns its stdout.
func run(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := cli(args, &out)
	return out.String(), err
}

func TestRunTortureVerifySmoke(t *testing.T) {
	path := writeProg(t, churnSrc)
	for _, gcName := range []string{"compiled", "interp", "appel", "tagged"} {
		for _, extra := range [][]string{nil, {"-marksweep"}} {
			if gcName == "tagged" && extra != nil {
				continue // mark/sweep is tag-free only
			}
			args := append([]string{"run", "-gc", gcName, "-heap", "2048",
				"-verify-heap", "-gc-torture", "-gc-stats"}, extra...)
			args = append(args, path)
			out, err := run(t, args...)
			if err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			if !strings.Contains(out, "=> 6300") {
				t.Fatalf("%v: missing result, got:\n%s", args, out)
			}
			if !strings.Contains(out, "torture-collections=") {
				t.Fatalf("%v: telemetry table lacks resilience counters:\n%s", args, out)
			}
		}
	}
}

func TestRunInjectedFailureRecovers(t *testing.T) {
	path := writeProg(t, churnSrc)
	out, err := run(t, "run", "-fail-every", "25", "-verify-heap", "-gc-stats", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "=> 6300") {
		t.Fatalf("missing result:\n%s", out)
	}
	if !strings.Contains(out, "injected-ooms=") || !strings.Contains(out, "emergency-collections=") {
		t.Fatalf("telemetry table lacks injection counters:\n%s", out)
	}
}

const greedySrc = `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec len xs = match xs with | [] -> 0 | _ :: r -> len r + 1
let greedy () = len (upto 6000)
let modest () = len (upto 20)
`

func TestTasksFaultIsolation(t *testing.T) {
	path := writeProg(t, greedySrc)
	out, err := run(t, "tasks", "-entry", "greedy,modest", "-heap", "1024",
		"-verify-heap", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[greedy] faulted:") {
		t.Fatalf("greedy task did not fault:\n%s", out)
	}
	if !strings.Contains(out, "[modest] => 20") {
		t.Fatalf("sibling task did not survive:\n%s", out)
	}
}

func TestTasksGrowthRescuesGreedyTask(t *testing.T) {
	path := writeProg(t, greedySrc)
	out, err := run(t, "tasks", "-entry", "greedy,modest", "-heap", "1024",
		"-heap-grow", "2", "-heap-max", "65536", "-verify-heap", "-gc-stats", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[greedy] => 6000") {
		t.Fatalf("growth did not rescue greedy task:\n%s", out)
	}
	if !strings.Contains(out, "heap-growths=") {
		t.Fatalf("telemetry table lacks growth counter:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	prog := writeProg(t, greedySrc)
	for _, args := range [][]string{
		nil,
		{"frobnicate", "x.ml"},
		{"tasks", prog},
		// Out-of-range values: the knob's range sentence, as a usage
		// error. Without the ranges -heap -1 panicked in heap.New and the
		// others ran without a word.
		{"run", "-heap", "-1", prog},
		{"run", "-gc", "wizard", prog},
		{"run", "-tlab", "-5", prog},
		{"run", "-gc-nursery", "3", prog},
		{"tasks", "-entry", "modest", "-par", "2", prog}, // no such flag
		{"run", "-heap-grow", "0.5", prog},
		{"run", "-fail-alloc", "-1", prog},
		{"run", "-budget-steps", "0", prog},
		{"run", "-gc-nursery", "256", "-tlab", "512", prog}, // a buffer larger than the space it is carved from
		{"repl", "-heap", "64"},
	} {
		if _, err := run(t, args...); err == nil {
			t.Fatalf("cli(%v) succeeded, want usage error", args)
		} else if _, ok := err.(*usageError); !ok {
			t.Fatalf("cli(%v): %v is not a usage error", args, err)
		}
	}
}

// TestTasksHoldsTheHeader: a file's corpus header gives tasks its entries
// and heap, and tasks fails naming every task whose value is not the
// header's; serve needs a header and a period.
func TestTasksHoldsTheHeader(t *testing.T) {
	const body = "\nlet rec upto n = if n = 0 then [] else n :: upto (n - 1)\n" +
		"let rec len xs = match xs with | [] -> 0 | _ :: r -> len r + 1\n" +
		"let a () = len (upto 30)\nlet b () = len (upto 40)\nlet c () = len (upto 50)\n"
	out, err := run(t, "tasks", "-stats", writeProg(t, "(* entries: a b c\n   expect: 30 41 49\n   heap: 128 *)"+body))
	if want := "tasks: the header's expect differs: b => 40 (expect 41), c => 50 (expect 49)"; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	if !strings.Contains(out, "[a] => 30\n[b] => 40\n[c] => 50\ncollections=") {
		t.Fatalf("tasks did not run the header's entries:\n%s", out)
	}
	if out, err := run(t, "tasks", "-stats", "-entry", "a", "-heap", "8192", writeProg(t, "(* entries: a\n   expect: 30\n   heap: 128 *)"+body)); err != nil || !strings.Contains(out, "collections=0 ") {
		t.Fatalf("-heap 8192 over a header's heap 128: %v\n%s", err, out)
	}
	for _, c := range []struct{ args, want string }{
		{"serve -period 10 -requests 1 -entry a " + writeProg(t, body), "has no corpus header"},
		{"serve -requests 1 corpus/taskserve.ml", "no arrival period: a closed set of tasks runs through pipeline.RunTasks"},
	} {
		if _, err := run(t, fields(c.args)...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("tfgc %s: %v, want an error saying %q", c.args, err, c.want)
		}
	}
}

// TestReadmeCommands runs every `go run ./cmd/tfgc` line of README.md but
// the repl through cli: each names a committed corpus file and must
// succeed, a run or tasks line must print that program's known results and
// a serve line no wrong one.
func TestReadmeCommands(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for i, line := range strings.Split(string(readme), "\n") {
		rest, ok := strings.CutPrefix(line, "go run ./cmd/tfgc ")
		if !ok || strings.HasPrefix(rest, "repl") {
			continue
		}
		ran++
		args := strings.Fields(rest)
		file := args[len(args)-1]
		args[len(args)-1] = filepath.Join("../..", file)
		t.Run(fmt.Sprintf("README.md:%d", i+1), func(t *testing.T) {
			out, err := run(t, args...)
			if err != nil {
				t.Fatalf("tfgc %s: %v", rest, err)
			}
			for _, want := range knownResults(t, args[0], strings.TrimSuffix(filepath.Base(file), ".ml"), args) {
				if !strings.Contains(out, want) {
					t.Errorf("tfgc %s: output lacks %q:\n%s", rest, want, out)
				}
			}
		})
	}
	if ran < 5 {
		t.Fatalf("README.md has only %d tfgc command lines", ran)
	}
}

// knownResults is what a corpus program's header says a run or tasks
// command prints: main's value, or each named entry's. A serve command
// counts a request whose value differs from it as wrong.
func knownResults(t *testing.T, cmd, name string, args []string) (want []string) {
	t.Helper()
	switch cmd {
	case "run":
		for _, w := range slices.Concat(workloads.All, workloads.Showcase) {
			if w.Name == name {
				return []string{fmt.Sprintf("=> %d\n", w.Expect)}
			}
		}
		t.Fatalf("%s is no single-task program of the corpus", name)
	case "tasks":
		w, ok := workloads.TaskByName(name)
		if !ok {
			t.Fatalf("%s is no task program of the corpus", name)
		}
		for _, e := range strings.Split(args[slices.Index(args, "-entry")+1], ",") {
			i := slices.Index(w.Entries, e)
			if i < 0 {
				t.Fatalf("%s has no entry %s", name, e)
			}
			want = append(want, fmt.Sprintf("[%s] => %d\n", e, w.Expect[i]))
		}
	case "serve":
		return []string{"serve: workload=" + name + " ", " wrong=0\n"}
	}
	return want
}

// corpusDir is the committed corpus as seen from this package; "corpus/" in
// a test's command line stands for it.
const corpusDir = "../../internal/workloads/corpus/"

// fields splits a test's command line, "corpus/" standing for corpusDir.
func fields(line string) []string {
	return strings.Fields(strings.ReplaceAll(line, "corpus/", corpusDir))
}

// TestEveryKnobIsAFlag: tfgc serve binds every row of the mode table, and
// the other commands every row but the arrival ones.
func TestEveryKnobIsAFlag(t *testing.T) {
	for _, k := range pipeline.Knobs {
		for _, cmd := range []string{"run", "tasks", "serve"} {
			_, err := parse([]string{cmd, "-" + k.Flag + "=?", "p.ml"})
			undefined := err != nil && strings.Contains(err.Error(), "flag provided but not defined")
			if undefined != (k.Serve && cmd != "serve") {
				t.Errorf("tfgc %s -%s: %v", cmd, k.Flag, err)
			}
		}
	}
}

// TestCLIOpenLoopLedger: an open-loop serve run's table accounts for every
// issued request and describes the run it made.
func TestCLIOpenLoopLedger(t *testing.T) {
	out, err := run(t, fields("serve -period 3000 -requests 40 -seed 7 -queue 4 -inflight 2 -retries 2"+
		" -mix req_tiny:3,req_small:1 corpus/taskserve.ml")...)
	if err != nil {
		t.Fatal(err)
	}
	var s serve.Stats
	if _, err := fmt.Sscanf(out[strings.Index(out, "requests: "):], "requests: issued=%d completed=%d shed=%d retries=%d dropped=%d canceled=%d faulted=%d wrong=%d",
		&s.Requests, &s.Completed, &s.Shed, &s.Retries, &s.Dropped, &s.Canceled, &s.Faulted, &s.WrongResults); err != nil {
		t.Fatalf("no requests: line (%v):\n%s", err, out)
	}
	if s.Requests != 40 || s.Completed+s.Dropped+s.Canceled+s.Faulted != s.Requests {
		t.Fatalf("ledger does not balance: %+v", s)
	}
	if !strings.HasPrefix(out, "serve: workload=taskserve ") || !strings.Contains(out, "\narrivals: period=3000 ") {
		t.Fatalf("table misdescribes the run:\n%s", out)
	}
}

// TestCLIOverloadTorture pins the overload-torture line of tier2-serve:
// open-loop arrivals at twice the sustainable rate with a collection before
// every allocation, the heap verifier after each and an injected allocation
// failure every 400th. The counts are virtual time, so they repeat exactly.
func TestCLIOverloadTorture(t *testing.T) {
	out, err := run(t, fields("serve -period 1500 -burst 2 -requests 30 -seed 13"+
		" -queue 6 -inflight 3 -shed-heap 85 -retries 2 -deadline 300000 -budget-steps 2000000"+
		" -mix req_tiny:4,req_small:2 -gc-torture -verify-heap -fail-every 400 corpus/taskserve.ml")...)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"completed=9 shed=63 ", " dropped=21 ", " faulted=0 wrong=0\n", " p99=176114 ", "gcs=707)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIBadFlags pins the exact diagnostic of each malformed or refused
// command line. A usage error (exit 2) is the flag package's preamble and
// the knob's range sentence, or this tool's own wording; a refusal (exit 1)
// is what the run refuses before it starts, or a file it cannot read.
// Without the ranges -heap -1 panicked in heap.New, -inflight -2 never
// terminated (hence the timeout) and the rest of the numeric ones ran
// without a word.
func TestCLIBadFlags(t *testing.T) {
	cases := []struct {
		line  string
		usage bool // a usage error rather than a refusal
		want  string
	}{
		{"serve corpus/nosuch.ml", false, "open corpus/nosuch.ml: no such file or directory"},
		{"serve -wrkload taskchurn corpus/taskchurn.ml", true, "flag provided but not defined: -wrkload"},
		{"serve -gc wizard corpus/taskserve.ml", true, `invalid value "wizard" for flag -gc: unknown strategy "wizard" (have compiled, interp, appel, tagged)`},
		{"serve -mix req_tiny corpus/taskserve.ml", true, `mix: "req_tiny" is not entry:weight`},
		{"serve -mix req_tiny:0 corpus/taskserve.ml", true, `mix: bad weight in "req_tiny:0"`},
		{"serve stray-arg corpus/taskserve.ml", true, "exactly one source file expected"},
		{"serve -heap -1 corpus/taskserve.ml", true, `invalid value "-1" for flag -heap: heap size -1 words out of range (128..67108864)`},
		{"serve -heap 64 corpus/taskserve.ml", true, `invalid value "64" for flag -heap: heap size 64 words out of range (128..67108864)`},
		{"serve -heap 10z24 corpus/taskserve.ml", true, `invalid value "10z24" for flag -heap: malformed heap size value "10z24"`},
		{"serve -heap", true, "flag needs an argument: -heap"},
		{"serve -period 3000 -requests 50 -inflight -2 corpus/taskserve.ml", true, `invalid value "-2" for flag -inflight: inflight -2 out of range (1..1024)`},
		{"serve -period 3000 -requests 50 -queue -1 corpus/taskserve.ml", true, `invalid value "-1" for flag -queue: queue depth -1 out of range (1..65536)`},
		{"serve -period -5 corpus/taskserve.ml", true, `invalid value "-5" for flag -period: period -5 out of range (1..1073741824)`},
		{"serve -shed-heap 500 corpus/taskserve.ml", true, `invalid value "500" for flag -shed-heap: shed-heap 500 percent out of range (1..100)`},
		{"serve -retries -1 corpus/taskserve.ml", true, `invalid value "-1" for flag -retries: retries -1 out of range (0..64)`},
		{"serve -burst 0 corpus/taskserve.ml", true, `invalid value "0" for flag -burst: burst 0 out of range (1..1024)`},
		{"serve -shards 0 corpus/taskserve.ml", true, `invalid value "0" for flag -shards: shards 0 out of range (1..64)`},
		{"serve -tlab -5 corpus/taskserve.ml", true, `invalid value "-5" for flag -tlab: tlab size -5 words out of range (0 to disable, or 8..65536)`},
		{"serve -tlab 4 corpus/taskserve.ml", true, `invalid value "4" for flag -tlab: tlab size 4 words out of range (0 to disable, or 8..65536)`},
		{"serve -tlab 131072 corpus/taskserve.ml", true, `invalid value "131072" for flag -tlab: tlab size 131072 words out of range (0 to disable, or 8..65536)`},
		{"serve -gc-nursery 3 corpus/taskserve.ml", true, `invalid value "3" for flag -gc-nursery: nursery size 3 words out of range (0 to disable, or 16..4194304)`},
		{"serve -gc-nursery 8388608 corpus/taskserve.ml", true, `invalid value "8388608" for flag -gc-nursery: nursery size 8388608 words out of range (0 to disable, or 16..4194304)`},
		{"serve -par 2 corpus/taskserve.ml", true, "flag provided but not defined: -par"},
		{"serve -scenario x corpus/taskserve.ml", true, "flag provided but not defined: -scenario"}, // runs are flag lines
		{"serve -heap-grow 0.5 corpus/taskserve.ml", true, `invalid value "0.5" for flag -heap-grow: heap-grow 0.5 out of range (must exceed 1, at most 16)`},
		{"serve -fail-alloc -1 corpus/taskserve.ml", true, `invalid value "-1" for flag -fail-alloc: fail-alloc -1 out of range (must be at least 1)`},
		{"serve -gc-torture=extra corpus/taskserve.ml", true, `invalid boolean value "extra" for -gc-torture: malformed boolean "extra"`},
		// A buffer as large as the space it is carved from.
		{"serve -gc-nursery 256 -tlab 512 corpus/taskserve.ml", true, "tlab size 512 words must be smaller than the nursery (256 words)"},
		{"serve -gc-nursery 64 -tlab 64 corpus/taskserve.ml", true, "tlab size 64 words must be smaller than the nursery (64 words)"},
		{"serve -heap 256 -tlab 256 corpus/taskchurn.ml", true, "tlab size 256 words must be smaller than the heap (256 words)"},

		{"serve -period 10 corpus/taskserve.ml", false, "serve: open-loop mode needs Requests > 0"},
		{"serve -mix nope:1 -period 10 -requests 1 corpus/taskserve.ml", false, "serve: mix entry \"nope\" is not an entry of workload taskserve"},
		{"serve -gc tagged -marksweep -period 3000 -requests 1 corpus/taskserve.ml", false, "mark/sweep is implemented for the tag-free strategies"}, // a pipeline.Rules refusal
	}
	for _, c := range cases {
		t.Run(strings.ReplaceAll(c.line, " ", "_"), func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- cli(fields(c.line), io.Discard) }()
			var err error
			select {
			case err = <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("cli does not terminate")
			}
			if err == nil {
				t.Fatal("accepted")
			}
			if _, ok := err.(*usageError); ok != c.usage {
				t.Errorf("usage error %v, want %v", ok, c.usage)
			}
			if want := strings.ReplaceAll(c.want, "corpus/", corpusDir); err.Error() != want {
				t.Errorf("diagnostic\n got: %s\nwant: %s", err, want)
			}
		})
	}
}

// TestFlagLinesMatchHandCoded: a flag line is the one way to configure a
// run, so it must build exactly the Options a hand-coded harness writes out
// longhand — the file header's heap where -heap is not given — and `tfgc
// tasks` must return every task's expected value with the collection count
// of pipeline.RunTasks under the hand-coded Options, and run what leaves the
// same collection records and final live heap.
func TestFlagLinesMatchHandCoded(t *testing.T) {
	const churn, mutate = 2048, 4096 // taskchurn's and taskmutate's header heaps
	hand := func(s gc.Strategy, heap int, ms bool, nursery, tlab, shards int) pipeline.Options {
		return pipeline.Options{Strategy: s, HeapWords: heap, MarkSweep: ms,
			NurseryWords: nursery, TLABWords: tlab, Shards: shards}
	}
	cases := []struct {
		line string
		want pipeline.Options
	}{
		{"tasks -gc compiled corpus/taskchurn.ml", hand(gc.StratCompiled, churn, false, 0, 0, 0)},
		{"tasks -gc compiled -marksweep corpus/taskchurn.ml", hand(gc.StratCompiled, churn, true, 0, 0, 0)},
		{"tasks -gc interp corpus/taskchurn.ml", hand(gc.StratInterp, churn, false, 0, 0, 0)},
		{"tasks -gc interp -marksweep corpus/taskchurn.ml", hand(gc.StratInterp, churn, true, 0, 0, 0)},
		{"tasks -gc appel corpus/taskchurn.ml", hand(gc.StratAppel, churn, false, 0, 0, 0)},
		{"tasks -gc appel -marksweep corpus/taskchurn.ml", hand(gc.StratAppel, churn, true, 0, 0, 0)},
		{"tasks -gc compiled -gc-nursery 256 corpus/taskmutate.ml", hand(gc.StratCompiled, mutate, false, 256, 0, 0)},
		{"tasks -gc compiled -tlab 64 corpus/taskchurn.ml", hand(gc.StratCompiled, churn, false, 0, 64, 0)},
		{"tasks -gc compiled -gc-nursery 256 -shards 2 corpus/taskmutate.ml", hand(gc.StratCompiled, mutate, false, 256, 0, 2)},
		{"tasks -gc compiled -gc-nursery 256 -shards 4 corpus/taskmutate.ml", hand(gc.StratCompiled, mutate, false, 256, 0, 4)},
	}
	for _, c := range cases {
		t.Run(strings.ReplaceAll(c.line, " ", "_"), func(t *testing.T) {
			args := fields(c.line)
			inv, err := parse(args)
			if err != nil {
				t.Fatal(err)
			}
			src, _, err := inv.load()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(inv.cfg.Opts, c.want) {
				t.Fatalf("options mismatch\n flags: %+v\n hand:  %+v", inv.cfg.Opts, c.want)
			}
			w, ok := workloads.TaskByName(strings.TrimSuffix(filepath.Base(inv.file), ".ml"))
			if !ok || !slices.Equal(inv.entries, w.Entries) {
				t.Fatalf("entries %v, want the header's", inv.entries)
			}
			ref, err := pipeline.RunTasks(w.Source, w.Entries, c.want)
			if err != nil {
				t.Fatalf("hand-coded run: %v", err)
			}
			out, err := run(t, append(args[:1:1], append([]string{"-stats"}, args[1:]...)...)...)
			if err != nil {
				t.Fatalf("tfgc %s: %v\n%s", c.line, err, out)
			}
			for i, want := range w.Expect {
				if ref.Values[i] != want || !strings.Contains(out, fmt.Sprintf("[%s] => %d\n", w.Entries[i], want)) {
					t.Errorf("task %s: hand-coded %d, want %d; tfgc printed\n%s", w.Entries[i], ref.Values[i], want, out)
				}
			}
			if n := ref.Stats.Collections; n == 0 || !strings.Contains(out, fmt.Sprintf("collections=%d ", n)) {
				t.Errorf("hand-coded run collects %d times; tfgc printed\n%s", n, out)
			}
			flagged, err := pipeline.RunTasks(src, inv.entries, inv.cfg.Opts)
			if err != nil {
				t.Fatalf("flag-line run: %v", err)
			}
			if a, b := len(flagged.Telemetry.Records), len(ref.Telemetry.Records); a != b || a == 0 {
				t.Errorf("collection records: flag line %d, hand-coded %d", a, b)
			}
			sig := flagged.Group.Col.LiveSignature(flagged.Group.Globals)
			if !reflect.DeepEqual(sig, ref.Group.Col.LiveSignature(ref.Group.Globals)) {
				t.Error("live-heap signatures differ")
			}
		})
	}
}

// FuzzFlagLine fuzzes the command-line front end short of running: parse
// never panics, every rejection is a usage error, and a line it accepts
// leaves every numeric knob either unset or at a value its row accepts
// again. The seeds are tier2-serve's lines, E14's, and lines at and past the
// ranges' ends. `make fuzz` runs it for 30 s.
func FuzzFlagLine(f *testing.F) {
	for _, line := range []string{
		"",
		"serve",
		"tasks -gc-torture -verify-heap -marksweep taskpoly.ml",
		"tasks -heap 1024 -fail-every 400 -heap-grow 1.5 -heap-max 8192 taskchurn.ml",
		"tasks -gc-nursery 256 -shards 4 -verify-heap -marksweep taskchurn.ml",
		"tasks -heap 1024 -gc-nursery 128 -shards 4 -fail-every 400 -heap-grow 1.5 -heap-max 8192 -verify-heap taskmutate.ml",
		"serve -period 1500 -burst 2 -requests 30 -seed 13 -queue 6 -inflight 3 -shed-heap 85 -retries 2" +
			" -deadline 300000 -budget-steps 2000000 -mix req_tiny:4,req_small:2 -gc-torture -verify-heap -fail-every 400 taskserve.ml",
		"serve -period 12000 -burst 1 -requests 120 -seed 7 -queue 8 -inflight 4 -retries 3 -deadline 400000" +
			" -mix req_tiny:6,req_small:3,req_medium:2,req_heavy:1 -shed-heap 85 -budget-steps 2000000 taskserve.ml",
		"serve -period 3000 -requests 120 -shed-heap 85 -budget-steps 50000 -gc-nursery 2048 -shards 8 -gc-stats taskserve.ml",
		"tasks -gc wizard taskchurn.ml",
		"serve -gc-nursery 7 -tlab 999999 taskserve.ml",
		"serve -heap-grow 1.5 taskserve.ml",
		"serve \xff",
		"serve -mix req_tiny taskserve.ml",
		"serve -mix req_tiny:0 -period 1 -requests 1 taskserve.ml",
		"serve -period 1 -requests 1 -shed-heap 200 taskserve.ml",
		"serve -period 1 -requests 1 -budget-steps 99999999999999999999 taskserve.ml",
		"tasks -shards 2 taskspine.ml",
		"tasks -gc tagged -marksweep -shards 2 taskspine.ml",
		"serve -gc-torture=extra taskserve.ml",
		"serve -heap",
		"serve -heap 10z24 taskserve.ml",
		"tasks -heap 128 -gc-nursery 16 -tlab 8 -shards 64 taskchurn.ml",
		"tasks -heap 67108865 taskchurn.ml",
		"tasks -fail-alloc 1 -fail-every 1 -heap-grow 16 -heap-max 128 taskchurn.ml",
		"tasks -heap-grow 1 taskchurn.ml",
		"serve -period 1073741824 -requests 1048576 -burst 1024 -seed 0 -queue 65536 -inflight 1024 -shed-heap 100" +
			" -retries 0 -backoff 1 -backoff-cap 1 -deadline 1099511627776 -budget-steps 1 -budget-alloc 1099511627776 taskserve.ml",
		"serve -period 1 -requests 1 -retries 65 taskserve.ml",
		"serve -heap 256 -tlab 256 taskserve.ml",
		"serve -json -bench-json - -gc-stats taskserve.ml",
		"serve -workload taskchurn taskserve.ml",
		"tasks -period 3000 taskchurn.ml",
		"serve stray-arg -heap 1024",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		inv, err := parse(strings.Fields(line))
		if err != nil {
			if _, ok := err.(*usageError); !ok {
				t.Fatalf("%q: %T is not a usage error: %v", line, err, err)
			}
			return
		}
		for i := range pipeline.Knobs {
			k := &pipeline.Knobs[i]
			target := any(&inv.cfg)
			if !k.Serve {
				target = &inv.cfg.Opts
			}
			v := reflect.ValueOf(target).Elem().FieldByName(k.Field)
			if k.Kind != pipeline.Int && k.Kind != pipeline.Float || v.IsZero() {
				continue
			}
			text := fmt.Sprint(v.Interface())
			if err := k.Set(target, text); err != nil {
				t.Fatalf("%q: -%s holds %s, which its row refuses: %v", line, k.Flag, text, err)
			}
		}
		for _, m := range inv.cfg.Mix {
			if m.Weight < 1 {
				t.Fatalf("%q: mix entry %q has weight %d", line, m.Entry, m.Weight)
			}
		}
	})
}

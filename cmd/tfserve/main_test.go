package main

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/serve"
)

// The tfserve CLI smoke suite drives cli() directly, the way the tfgc
// tests drive theirs: the closed-loop default, an open-loop overload run,
// the JSON snapshot form, and flag validation.

func TestCLIClosedLoop(t *testing.T) {
	var out strings.Builder
	if err := cli(nil, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"serve: workload=taskserve", "closed-loop",
		"issued=4 completed=4", "latency(steps):"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestCLIOpenLoopJSON(t *testing.T) {
	var out strings.Builder
	args := []string{"-period", "3000", "-requests", "40", "-seed", "7",
		"-queue", "4", "-inflight", "2", "-retries", "2",
		"-mix", "req_tiny:3,req_small:1", "-json"}
	if err := cli(args, &out); err != nil {
		t.Fatal(err)
	}
	var snap serve.Snapshot
	if err := json.Unmarshal([]byte(out.String()), &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	if snap.Schema != serve.SnapshotSchema || len(snap.Runs) != 1 {
		t.Fatalf("snapshot shape: schema=%q runs=%d", snap.Schema, len(snap.Runs))
	}
	r := snap.Runs[0]
	s := r.Stats
	if s.Requests != 40 || s.Completed+s.Dropped+s.Canceled+s.Faulted != s.Requests {
		t.Fatalf("ledger does not balance: %+v", s)
	}
	if r.Kind != "serve" || r.Period != 3000 {
		t.Fatalf("report misdescribes the run: %+v", r)
	}
}

// TestCLIOverloadTorture pins the overload-torture line of tier2-serve:
// open-loop arrivals at twice the sustainable rate with a collection before
// every allocation, the heap verifier after each and an injected allocation
// failure every 400th. The counts are virtual time, so they repeat exactly.
func TestCLIOverloadTorture(t *testing.T) {
	var out strings.Builder
	args := strings.Fields("-workload taskserve -period 1500 -burst 2 -requests 30 -seed 13" +
		" -queue 6 -inflight 3 -shed-heap 85 -retries 2 -deadline 300000 -budget-steps 2000000" +
		" -mix req_tiny:4,req_small:2 -gc-torture -verify-heap -fail-every 400")
	if err := cli(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"completed=9 shed=63 ", " dropped=21 ", " faulted=0 wrong=0\n", " p99=176114 "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestCLIBadFlags pins the exact diagnostic of each malformed or refused
// flag line. A usage error (exit 2) is the flag package's preamble and the
// knob's range sentence, or this tool's own wording; a refusal (exit 1) is
// what the run refuses before it starts. Without the ranges -heap -1
// panicked in heap.New, -inflight -2 never terminated (hence the timeout)
// and the rest of the numeric ones ran without a word.
func TestCLIBadFlags(t *testing.T) {
	cases := []struct {
		args  string
		usage bool // a usage error rather than a refusal
		want  string
	}{
		{"-workload nosuch", true, `unknown task workload "nosuch"`},
		{"-wrkload taskchurn", true, "flag provided but not defined: -wrkload"},
		{"-gc wizard", true, `invalid value "wizard" for flag -gc: unknown strategy "wizard" (have compiled, interp, appel, tagged)`},
		{"-mix req_tiny", true, `mix: "req_tiny" is not entry:weight`},
		{"-mix req_tiny:0", true, `mix: bad weight in "req_tiny:0"`},
		{"stray-arg", true, `unexpected argument "stray-arg"`},
		{"-heap -1", true, `invalid value "-1" for flag -heap: heap size -1 words out of range (128..67108864)`},
		{"-heap 64", true, `invalid value "64" for flag -heap: heap size 64 words out of range (128..67108864)`},
		{"-heap 10z24", true, `invalid value "10z24" for flag -heap: malformed heap size value "10z24"`},
		{"-heap", true, "flag needs an argument: -heap"},
		{"-period 3000 -requests 50 -inflight -2", true, `invalid value "-2" for flag -inflight: inflight -2 out of range (1..1024)`},
		{"-period 3000 -requests 50 -queue -1", true, `invalid value "-1" for flag -queue: queue depth -1 out of range (1..65536)`},
		{"-period -5", true, `invalid value "-5" for flag -period: period -5 out of range (1..1073741824)`},
		{"-shed-heap 500", true, `invalid value "500" for flag -shed-heap: shed-heap 500 percent out of range (1..100)`},
		{"-retries -1", true, `invalid value "-1" for flag -retries: retries -1 out of range (0..64)`},
		{"-burst 0", true, `invalid value "0" for flag -burst: burst 0 out of range (1..1024)`},
		{"-shards 0", true, `invalid value "0" for flag -shards: shards 0 out of range (1..64)`},
		{"-tlab -5", true, `invalid value "-5" for flag -tlab: tlab size -5 words out of range (0 to disable, or 8..65536)`},
		{"-tlab 4", true, `invalid value "4" for flag -tlab: tlab size 4 words out of range (0 to disable, or 8..65536)`},
		{"-tlab 131072", true, `invalid value "131072" for flag -tlab: tlab size 131072 words out of range (0 to disable, or 8..65536)`},
		{"-gc-nursery 3", true, `invalid value "3" for flag -gc-nursery: nursery size 3 words out of range (0 to disable, or 16..4194304)`},
		{"-gc-nursery 8388608", true, `invalid value "8388608" for flag -gc-nursery: nursery size 8388608 words out of range (0 to disable, or 16..4194304)`},
		{"-par 2", true, "flag provided but not defined: -par"},
		{"-scenario x", true, "flag provided but not defined: -scenario"}, // runs are flag lines
		{"-heap-grow 0.5", true, `invalid value "0.5" for flag -heap-grow: heap-grow 0.5 out of range (must exceed 1, at most 16)`},
		{"-fail-alloc -1", true, `invalid value "-1" for flag -fail-alloc: fail-alloc -1 out of range (must be at least 1)`},
		{"-gc-torture=extra", true, `invalid boolean value "extra" for -gc-torture: malformed boolean "extra"`},
		// A buffer as large as the space it is carved from.
		{"-gc-nursery 256 -tlab 512", true, "tlab size 512 words must be smaller than the nursery (256 words)"},
		{"-gc-nursery 64 -tlab 64", true, "tlab size 64 words must be smaller than the nursery (64 words)"},
		{"-workload taskchurn -heap 256 -tlab 256", true, "tlab size 256 words must be smaller than the heap (256 words)"},

		{"-period 10", false, "serve: open-loop mode needs Requests > 0"},
		{"-mix nope:1 -period 10 -requests 1", false, "serve: mix entry \"nope\" is not an entry of workload taskserve"},
		{"-gc tagged -marksweep", false, "mark/sweep is implemented for the tag-free strategies"}, // a pipeline.Rules refusal
	}
	for _, c := range cases {
		t.Run(strings.ReplaceAll(c.args, " ", "_"), func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- cli(strings.Fields(c.args), io.Discard) }()
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
			if err.Error() != c.want {
				t.Errorf("diagnostic\n got: %s\nwant: %s", err, c.want)
			}
		})
	}
}

// TestFlagLinesMatchHandCoded: a flag line is the one way to configure a
// run, so it must build exactly the Options a hand-coded harness writes out
// longhand — the workload's recommended heap where -heap is not given — and
// its closed-loop run must return every task's expected value with the
// collection records and final live heap of pipeline.RunTasks under the
// hand-coded Options.
func TestFlagLinesMatchHandCoded(t *testing.T) {
	const churn, mutate = 2048, 4096 // taskchurn's and taskmutate's recommended heaps
	hand := func(s gc.Strategy, heap int, ms bool, nursery, tlab, shards int) pipeline.Options {
		return pipeline.Options{Strategy: s, HeapWords: heap, MarkSweep: ms,
			NurseryWords: nursery, TLABWords: tlab, Shards: shards}
	}
	cases := []struct {
		line string
		want pipeline.Options
	}{
		{"-workload taskchurn -gc compiled", hand(gc.StratCompiled, churn, false, 0, 0, 0)},
		{"-workload taskchurn -gc compiled -marksweep", hand(gc.StratCompiled, churn, true, 0, 0, 0)},
		{"-workload taskchurn -gc interp", hand(gc.StratInterp, churn, false, 0, 0, 0)},
		{"-workload taskchurn -gc interp -marksweep", hand(gc.StratInterp, churn, true, 0, 0, 0)},
		{"-workload taskchurn -gc appel", hand(gc.StratAppel, churn, false, 0, 0, 0)},
		{"-workload taskchurn -gc appel -marksweep", hand(gc.StratAppel, churn, true, 0, 0, 0)},
		{"-workload taskmutate -gc compiled -gc-nursery 256", hand(gc.StratCompiled, mutate, false, 256, 0, 0)},
		{"-workload taskchurn -gc compiled -tlab 64", hand(gc.StratCompiled, churn, false, 0, 64, 0)},
		{"-workload taskmutate -gc compiled -gc-nursery 256 -shards 2", hand(gc.StratCompiled, mutate, false, 256, 0, 2)},
		{"-workload taskmutate -gc compiled -gc-nursery 256 -shards 4", hand(gc.StratCompiled, mutate, false, 256, 0, 4)},
	}
	for _, c := range cases {
		t.Run(strings.ReplaceAll(c.line, " ", "_"), func(t *testing.T) {
			inv, err := parse(strings.Fields(c.line))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(inv.cfg.Opts, c.want) {
				t.Fatalf("options mismatch\n flags: %+v\n hand:  %+v", inv.cfg.Opts, c.want)
			}
			w := inv.cfg.Workload
			res, err := serve.Run(inv.cfg)
			if err != nil {
				t.Fatalf("flag-line run: %v", err)
			}
			ref, err := pipeline.RunTasks(w.Source, w.Entries, c.want)
			if err != nil {
				t.Fatalf("hand-coded run: %v", err)
			}
			for i, want := range w.Expect {
				if res.Values[i] != want || ref.Values[i] != want {
					t.Errorf("task %d: flag line %d, hand-coded %d, want %d", i, res.Values[i], ref.Values[i], want)
				}
			}
			if a, b := len(res.Group.Col.Telem.Records), len(ref.Telemetry.Records); a != b || a == 0 {
				t.Errorf("collection records: flag line %d, hand-coded %d", a, b)
			}
			sig := res.Group.Col.LiveSignature(res.Group.Globals)
			if !reflect.DeepEqual(sig, ref.Group.Col.LiveSignature(ref.Group.Globals)) {
				t.Error("live-heap signatures differ")
			}
		})
	}
}

// FuzzFlagLine fuzzes the flag front end short of running: parse never
// panics, every rejection is a usage error, and a line it accepts leaves
// every numeric knob either unset or at a value its row accepts again. The
// seeds are tier2-serve's lines, E14's, and lines at and past the ranges'
// ends. `make fuzz` runs it for 30 s.
func FuzzFlagLine(f *testing.F) {
	for _, line := range []string{
		"",
		"-workload taskpoly -gc-torture -verify-heap -marksweep",
		"-workload taskchurn -heap 1024 -fail-every 400 -heap-grow 1.5 -heap-max 8192",
		"-workload taskchurn -gc-nursery 256 -shards 4 -verify-heap -marksweep",
		"-workload taskmutate -heap 1024 -gc-nursery 128 -shards 4 -fail-every 400 -heap-grow 1.5 -heap-max 8192 -verify-heap",
		"-workload taskserve -period 1500 -burst 2 -requests 30 -seed 13 -queue 6 -inflight 3 -shed-heap 85 -retries 2" +
			" -deadline 300000 -budget-steps 2000000 -mix req_tiny:4,req_small:2 -gc-torture -verify-heap -fail-every 400",
		"-period 12000 -burst 1 -requests 120 -seed 7 -queue 8 -inflight 4 -retries 3 -deadline 400000" +
			" -mix req_tiny:6,req_small:3,req_medium:2,req_heavy:1 -shed-heap 85 -budget-steps 2000000",
		"-period 3000 -requests 120 -shed-heap 85 -budget-steps 50000 -gc-nursery 2048 -shards 8 -gc-stats",
		"-workload taskchurn -gc wizard",
		"-gc-nursery 7 -tlab 999999",
		"-heap-grow 1.5",
		"-workload \xff",
		"-mix req_tiny",
		"-mix req_tiny:0 -period 1 -requests 1",
		"-period 1 -requests 1 -shed-heap 200",
		"-period 1 -requests 1 -budget-steps 99999999999999999999",
		"-workload taskspine -shards 2",
		"-workload taskspine -gc tagged -marksweep -shards 2",
		"-gc-torture=extra",
		"-heap",
		"-heap 10z24",
		"-workload taskchurn -heap 128 -gc-nursery 16 -tlab 8 -shards 64",
		"-workload taskchurn -heap 67108865",
		"-workload taskchurn -fail-alloc 1 -fail-every 1 -heap-grow 16 -heap-max 128",
		"-workload taskchurn -heap-grow 1",
		"-period 1073741824 -requests 1048576 -burst 1024 -seed 0 -queue 65536 -inflight 1024 -shed-heap 100" +
			" -retries 0 -backoff 1 -backoff-cap 1 -deadline 1099511627776 -budget-steps 1 -budget-alloc 1099511627776",
		"-period 1 -requests 1 -retries 65",
		"-heap 256 -tlab 256",
		"-json -bench-json - -gc-stats",
		"stray-arg -heap 1024",
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

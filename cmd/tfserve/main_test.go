package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

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

func TestCLIScenario(t *testing.T) {
	var out strings.Builder
	if err := cli([]string{"-scenario", "../../testdata/scenarios/overload-torture.tfs"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "overload-torture") ||
		!strings.Contains(out.String(), "serve: done=") {
		t.Errorf("scenario table missing serve row:\n%s", out.String())
	}
}

func TestCLIBadFlags(t *testing.T) {
	// Out-of-range values are usage errors carrying the sentence the .tfs
	// front end prints for the same key. At the parent -heap -1 panicked in
	// heap.New, -inflight -2 never terminated (hence the timeout) and the
	// rest of the numeric ones ran without a word.
	usage := [][]string{
		{"-workload", "nosuch"},
		{"-gc", "wizard"},
		{"-mix", "req_tiny"},   // missing weight
		{"-mix", "req_tiny:0"}, // non-positive weight
		{"stray-arg"},
		{"-heap", "-1"},
		{"-period", "3000", "-requests", "50", "-inflight", "-2"},
		{"-period", "3000", "-requests", "50", "-queue", "-1"},
		{"-period", "-5"},
		{"-shed-heap", "500"},
		{"-retries", "-1"},
		{"-burst", "0"},
		{"-tlab", "-5"},
		{"-gc-nursery", "3"},
		{"-par", "2"}, // no such flag
		{"-heap-grow", "0.5"},
		{"-fail-alloc", "-1"},
		{"-gc-nursery", "256", "-tlab", "512"}, // a buffer larger than the space it is carved from
	}
	refused := [][]string{
		{"-period", "10"}, // open loop without -requests
		{"-mix", "nope:1", "-period", "10", "-requests", "1"}, // unknown entry
		{"-gc", "tagged", "-marksweep"},                       // a pipeline.Rules refusal
	}
	for i, args := range append(usage, refused...) {
		done := make(chan error, 1)
		go func() { done <- cli(args, io.Discard) }()
		select {
		case err := <-done:
			if _, ok := err.(*usageError); err == nil || i < len(usage) && !ok {
				t.Errorf("args %v: got %v, want a usage error (the first %d) or a refusal", args, err, len(usage))
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("args %v: cli does not terminate", args)
		}
	}
}

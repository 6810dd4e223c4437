package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

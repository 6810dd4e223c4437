// Command tfserve drives the overload-resilience serving harness: an
// open-loop request generator (arrival rate, burst, heavy-tail service
// mix) over a task workload, with bounded admission, load shedding,
// client retry, and the degradation ladder (shed arrivals → forced
// major collections → deadline cancellation) standing between
// overload and global failure.
//
//	tfserve                                  # closed-loop taskserve run (tfgc tasks twin)
//	tfserve -period 3000 -requests 120       # open-loop arrivals at one request per 3000 steps
//	tfserve -period 3000 -requests 120 -mix req_tiny:6,req_small:3,req_medium:2,req_heavy:1
//	tfserve -period 1500 -burst 2 -requests 60 -queue 8 -inflight 4 -shed-heap 85 \
//	        -retries 3 -deadline 400000 -budget-steps 2000000
//	tfserve -json ...                        # tagfree-bench/v1 snapshot on stdout
//	tfserve -bench-json out.json ...         # table + snapshot file
//	tfserve -scenario testdata/scenarios/overload.tfs   # declarative overload matrix
//
// The runtime and arrival flags are the rows of pipeline.Knobs, bound by
// pipeline.BindFlags — the same rows tfgc binds and the .tfs arrivals and
// faults blocks parse through, so a flag and its key accept the same
// values; README's "Modes, flags and keys" table lists them. -workload,
// -mix, -gc-stats, -json, -bench-json and -scenario are this tool's own.
//
// All arrival scheduling and latency accounting is in virtual steps, so
// reported p50/p99/p999 latencies are deterministic for a given -seed;
// wall time appears only in the throughput line (EXPERIMENTS.md, E14's
// verdict).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"tagfree/internal/pipeline"
	"tagfree/internal/scenario"
	"tagfree/internal/serve"
	"tagfree/internal/workloads"
)

// usageError distinguishes bad invocations (exit 2) from runtime failures
// (exit 1).
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func main() {
	if err := cli(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tfserve:", err)
		if _, ok := err.(*usageError); ok {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// cli runs one tfserve invocation, writing the report to stdout. It is
// the whole command minus process concerns (exit codes, stderr), so tests
// can drive it directly.
func cli(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tfserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg := serve.Config{Burst: 1, Seed: 1}
	pipeline.BindFlags(fs, &cfg.Opts, &cfg)
	workload := fs.String("workload", "taskserve", "task workload whose entries are the service classes")
	mixSpec := fs.String("mix", "", "weighted service mix, entry:weight[,entry:weight...] (empty = uniform)")
	gcStats := fs.Bool("gc-stats", false, "print the per-collection GC telemetry table after the report")
	asJSON := fs.Bool("json", false, "emit the tagfree-bench/v1 snapshot on stdout instead of the table")
	benchJSON := fs.String("bench-json", "", "additionally write the snapshot to this file")
	scenarioPath := fs.String("scenario", "", "run the scenario matrix from a .tfs file or directory instead of flags")
	if err := fs.Parse(args); err != nil {
		return &usageError{err.Error()}
	}
	if fs.NArg() != 0 {
		return &usageError{fmt.Sprintf("unexpected argument %q", fs.Arg(0))}
	}

	if *scenarioPath != "" {
		return scenario.RunPath(*scenarioPath, *asJSON, *benchJSON, stdout, os.Stderr)
	}

	w, ok := workloads.TaskByName(*workload)
	if !ok {
		return &usageError{fmt.Sprintf("unknown task workload %q", *workload)}
	}
	var err error
	if cfg.Mix, err = parseMix(*mixSpec); err != nil {
		return err
	}
	cfg.Workload = w
	if cfg.Opts.HeapWords == 0 {
		cfg.Opts.HeapWords = w.HeapWords
	}
	if err := cfg.Opts.CheckSizes(); err != nil {
		return &usageError{err.Error()}
	}
	res, err := serve.Run(cfg)
	if err != nil {
		return err
	}
	rep := serve.NewReport(w.Name, cfg, res)
	snap := serve.Snapshot{Schema: serve.SnapshotSchema, Runs: []serve.Report{rep}}
	if err := scenario.Emit(stdout, snap, rep.Table(), *asJSON, *benchJSON); err != nil {
		return err
	}
	if *gcStats {
		fmt.Fprint(stdout, pipeline.TelemetryTable(&res.Group.Col.Telem, pipeline.TelemetryOptions{Tasks: true}))
	}
	return nil
}

// parseMix parses the -mix spec: entry:weight pairs, comma-separated.
func parseMix(spec string) ([]serve.MixEntry, error) {
	if spec == "" {
		return nil, nil
	}
	var mix []serve.MixEntry
	for _, part := range strings.Split(spec, ",") {
		entry, weight, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, &usageError{fmt.Sprintf("mix: %q is not entry:weight", part)}
		}
		n, err := strconv.Atoi(weight)
		if err != nil || n < 1 {
			return nil, &usageError{fmt.Sprintf("mix: bad weight in %q", part)}
		}
		mix = append(mix, serve.MixEntry{Entry: entry, Weight: n})
	}
	return mix, nil
}

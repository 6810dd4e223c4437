// Command tfbench regenerates the experiment tables (E1–E16; see
// EXPERIMENTS.md). With arguments, it runs only the named experiments.
//
//	tfbench              # all experiments
//	tfbench e1 e4        # selected experiments
//	tfbench -repeats 5 e2
//	tfbench telemetry    # per-collection GC telemetry over the task corpus
//	tfbench -json telemetry
//	tfbench -scenario testdata/scenarios/          # declarative scenario matrix
//	tfbench -scenario run.tfs -json                # ... as a tagfree-bench/v1 snapshot
//	tfbench -scenario run.tfs -bench-json out.json # table + snapshot file
//
// The telemetry report takes the runtime flags of pipeline.Knobs (bound by
// pipeline.BindFlags, listed in README's "Modes, flags and keys" table);
// -repeats, -json, -bench-json and -scenario are this tool's own.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"tagfree/internal/experiments"
	"tagfree/internal/pipeline"
	"tagfree/internal/scenario"
	"tagfree/internal/workloads"
)

func main() {
	var opts pipeline.Options
	pipeline.BindFlags(flag.CommandLine, &opts)
	repeats := flag.Int("repeats", 3, "timing repetitions (best-of)")
	asJSON := flag.Bool("json", false, "emit the telemetry report as JSON instead of tables")
	benchJSON := flag.String("bench-json", "", "with -scenario: additionally write the snapshot (schema tagfree-bench/v1) to this file")
	scenarioPath := flag.String("scenario", "", "run the scenario matrix from a .tfs file or a directory of .tfs files")
	flag.Parse()

	if *scenarioPath != "" {
		if err := scenario.RunPath(*scenarioPath, *asJSON, *benchJSON, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
			if errors.Is(err, scenario.ErrInput) {
				os.Exit(2)
			}
			os.Exit(1)
		}
		return
	}

	if *benchJSON != "" {
		fmt.Fprintln(os.Stderr, "tfbench: -bench-json writes a scenario matrix's snapshot and needs -scenario; the repository benchmark is `go run ./benchmark` (BENCHMARK.json)")
		os.Exit(2)
	}

	runners := map[string]func() *experiments.Table{
		"e1":  experiments.E1HeapSpace,
		"e2":  func() *experiments.Table { return experiments.E2MutatorTags(*repeats) },
		"e3":  experiments.E3Liveness,
		"e4":  func() *experiments.Table { return experiments.E4SpaceTime(*repeats) },
		"e5":  experiments.E5GCWordElision,
		"e6":  experiments.E6PolyWalk,
		"e7":  experiments.E7Tasking,
		"e8":  experiments.E8RuntimeReps,
		"e9":  func() *experiments.Table { return experiments.E9MarkSweep(*repeats) },
		"e11": experiments.E11Generational,
		"e12": experiments.E12AllocContention,
		"e13": experiments.E13ScenarioMatrix,
		"e14": experiments.E14Overload,
		"e16": experiments.E16ShardedMinors,
	}
	order := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e11", "e12", "e13", "e14", "e16"}

	selected := flag.Args()
	if len(selected) == 0 {
		selected = order
	}
	for _, name := range selected {
		if strings.EqualFold(name, "telemetry") {
			telemetryReport(opts, *asJSON)
			continue
		}
		r, ok := runners[strings.ToLower(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s, telemetry)\n", name, strings.Join(order, ", "))
			os.Exit(2)
		}
		fmt.Println(r().Render())
	}
}

// telemetryReport runs the multi-task workload corpus in both heap
// disciplines (mark/sweep alone under -marksweep) and emits each run's
// per-collection telemetry — the table form for reading, the JSON form for
// tooling. Every runtime flag applies to every run, so -verify-heap and
// -gc-torture turn the report into a GC stress run over the whole corpus,
// -gc-nursery runs it generationally and -tlab grows the
// refill/fast/shared/waste columns plus the cumulative tlab line. A row whose discipline the flags' modes refuse
// (pipeline.Rules) is reported as a skip with the reasons, never run with
// the mode quietly dropped.
func telemetryReport(base pipeline.Options, asJSON bool) {
	disciplines := []scenario.Discipline{scenario.Copying, scenario.MarkSweep}
	if base.MarkSweep {
		disciplines = disciplines[1:]
	}
	for _, w := range workloads.Tasking {
		for _, disc := range disciplines {
			opts := base
			opts.MarkSweep = disc == scenario.MarkSweep
			if opts.HeapWords == 0 {
				opts.HeapWords = w.HeapWords
			}
			if err := opts.CheckSizes(); err != nil {
				fmt.Fprintf(os.Stderr, "telemetry %s: %v\n", w.Name, err)
				os.Exit(2)
			}
			if reasons := opts.Refusals(); len(reasons) > 0 {
				skip := os.Stdout
				if asJSON {
					skip = os.Stderr // stdout is a stream of JSON objects
				}
				fmt.Fprintf(skip, "%s (%d tasks) %s: skip: %s\n\n", w.Name, len(w.Entries), disc, strings.Join(reasons, "; "))
				continue
			}
			res, err := pipeline.RunTasks(w.Source, w.Entries, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "telemetry %s: %v\n", w.Name, err)
				os.Exit(1)
			}
			if asJSON {
				js, err := pipeline.TelemetryJSON(res.Telemetry, pipeline.TelemetryOptions{})
				if err != nil {
					fmt.Fprintf(os.Stderr, "telemetry %s: %v\n", w.Name, err)
					os.Exit(1)
				}
				fmt.Println(string(js))
				continue
			}
			fmt.Printf("%s (%d tasks)\n", w.Name, len(w.Entries))
			fmt.Println(pipeline.TelemetryTable(res.Telemetry, pipeline.TelemetryOptions{Tasks: true}))
		}
	}
}

// Command tfbench regenerates the experiment tables (E1–E9; see
// EXPERIMENTS.md). With arguments, it runs only the named experiments.
//
//	tfbench              # all experiments
//	tfbench e1 e4        # selected experiments
//	tfbench -repeats 5 e2
//	tfbench telemetry    # per-collection GC telemetry over the task corpus
//	tfbench -json telemetry
//
// The telemetry report takes the runtime flags of pipeline.Knobs (bound by
// pipeline.BindFlags, listed in README's "Modes and flags" table);
// -repeats and -json are this tool's own.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tagfree/internal/experiments"
	"tagfree/internal/pipeline"
	"tagfree/internal/workloads"
)

func main() {
	var opts pipeline.Options
	pipeline.BindFlags(flag.CommandLine, &opts)
	repeats := flag.Int("repeats", 3, "timing repetitions (best-of)")
	asJSON := flag.Bool("json", false, "emit the telemetry report as JSON instead of tables")
	flag.Parse()

	runners := map[string]func(int) *experiments.Table{}
	var order []string
	for _, e := range experiments.List {
		runners[e.Name] = e.Run
		order = append(order, e.Name)
	}

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
		fmt.Println(r(*repeats).Render())
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
	disciplines := []bool{false, true}
	if base.MarkSweep {
		disciplines = disciplines[1:]
	}
	for _, w := range workloads.Tasking {
		for _, markSweep := range disciplines {
			opts := base
			opts.MarkSweep = markSweep
			if opts.HeapWords == 0 {
				opts.HeapWords = w.HeapWords
			}
			if err := opts.CheckSizes(); err != nil {
				fmt.Fprintf(os.Stderr, "telemetry %s: %v\n", w.Name, err)
				os.Exit(2)
			}
			if reasons := opts.Refusals(); len(reasons) > 0 {
				skip, disc := os.Stdout, "copying"
				if asJSON {
					skip = os.Stderr // stdout is a stream of JSON objects
				}
				if markSweep {
					disc = "mark/sweep"
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

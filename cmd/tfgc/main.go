// Command tfgc compiles and runs MinML programs under a chosen garbage
// collection strategy.
//
//	tfgc run [-gc compiled|interp|appel|tagged] [-heap N] [-stats] [-gc-stats] prog.ml
//	tfgc check prog.ml           # type check; print top-level schemes
//	tfgc ir prog.ml              # dump the lowered IR
//	tfgc disasm prog.ml          # disassemble the generated bytecode
//	tfgc tasks -entry a,b prog.ml  # run entries as concurrent tasks
//	tfgc fmt prog.ml             # reprint the program from its AST
//	tfgc repl                    # interactive session
//
// The runtime flags — collector, heap discipline, nursery, allocation
// buffers, shards, fault injection, budgets — are the
// rows of pipeline.Knobs, bound by pipeline.BindFlags and listed with
// their ranges and compatibility rules in README's "Modes and flags"
// table; -stats, -gc-stats and -entry are this tool's own.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"tagfree/internal/mlang/parser"
	"tagfree/internal/mlang/printer"
	"tagfree/internal/mlang/types"
	"tagfree/internal/pipeline"
)

// usageError distinguishes bad invocations (exit 2) from runtime failures
// (exit 1).
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func main() {
	if err := cli(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tfgc:", err)
		if _, ok := err.(*usageError); ok {
			fmt.Fprintln(os.Stderr, "usage: tfgc {run|check|ir|disasm|fmt|tasks|repl} [flags] [file.ml]")
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// cli runs one tfgc invocation, writing program output to stdout. It is
// the whole command minus process concerns (exit codes, stderr), so tests
// can drive it directly.
func cli(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return &usageError{"missing command"}
	}
	cmd := args[0]
	switch cmd {
	case "run", "check", "ir", "disasm", "fmt", "tasks", "repl":
	default:
		return &usageError{fmt.Sprintf("unknown command %q", cmd)}
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var opts pipeline.Options
	pipeline.BindFlags(fs, &opts)
	stats := fs.Bool("stats", false, "print execution and collection statistics")
	entries := fs.String("entry", "", "comma-separated task entry functions (tasks command)")
	gcStats := fs.Bool("gc-stats", false, "print per-collection GC telemetry after the run")
	if err := fs.Parse(args[1:]); err != nil {
		return &usageError{err.Error()}
	}
	if err := opts.CheckSizes(); err != nil {
		return &usageError{err.Error()}
	}
	if cmd == "repl" {
		repl(os.Stdin, stdout, opts)
		return nil
	}
	if fs.NArg() != 1 {
		return &usageError{"exactly one source file expected"}
	}
	srcBytes, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	src := string(srcBytes)

	switch cmd {
	case "run":
		res, err := pipeline.Run(src, opts)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Output)
		fmt.Fprintf(stdout, "=> %d\n", res.Value)
		if *stats {
			printStats(stdout, res)
		}
		if *gcStats {
			fmt.Fprint(stdout, pipeline.TelemetryTable(res.Telemetry, pipeline.TelemetryOptions{}))
		}
	case "check":
		if err := checkCmd(stdout, src); err != nil {
			return err
		}
		ws, err := pipeline.Warnings(src)
		if err == nil {
			for _, w := range ws {
				fmt.Fprintln(stdout, w)
			}
		}
	case "ir":
		irp, _, err := pipeline.Frontend(src)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, irp.String())
	case "fmt":
		prog, err := parser.Parse(src)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, printer.Program(prog))
	case "disasm":
		prog, _, err := pipeline.Build(src, opts)
		if err != nil {
			return err
		}
		for i := range prog.Funcs {
			fmt.Fprintln(stdout, prog.DisasmFunc(i))
		}
	case "tasks":
		if *entries == "" {
			return &usageError{"tasks: -entry a,b,... required"}
		}
		names := strings.Split(*entries, ",")
		res, err := pipeline.RunTasks(src, names, opts)
		if err != nil {
			return err
		}
		faulted := 0
		for i, name := range names {
			if out := res.Outputs[i]; out != "" {
				fmt.Fprintf(stdout, "[%s] %s\n", name, out)
			}
			if f := res.Faults[i]; f != nil {
				faulted++
				fmt.Fprintf(stdout, "[%s] faulted: %v\n", name, f)
				continue
			}
			fmt.Fprintf(stdout, "[%s] => %d\n", name, res.Values[i])
		}
		if *stats {
			fmt.Fprintf(stdout, "collections=%d rgc-checks=%d instructions=%d\n",
				res.Stats.Collections, res.Stats.RgcChecks, res.Stats.Instructions)
			if opts.TLABWords > 0 {
				for i, name := range names {
					ts := res.TLABs[i]
					fmt.Fprintf(stdout, "[%s] tlab: refills=%d refill-words=%d fast=%d slow=%d waste=%d returned=%d\n",
						name, ts.Refills, ts.RefillWords, ts.FastAllocs, ts.SlowAllocs, ts.WasteWords, ts.ReturnedWords)
				}
			}
		}
		if *gcStats {
			fmt.Fprint(stdout, pipeline.TelemetryTable(res.Telemetry, pipeline.TelemetryOptions{Tasks: true}))
		}
		if faulted == len(names) {
			return fmt.Errorf("tasks: all %d tasks faulted", faulted)
		}
	}
	return nil
}

func checkCmd(stdout io.Writer, src string) error {
	prog, err := parser.Parse(src)
	if err != nil {
		return err
	}
	info, err := types.Check(prog)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(info.TopScheme))
	for name := range info.TopScheme {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "val %s : %s\n", name, info.TopScheme[name])
	}
	return nil
}

func printStats(stdout io.Writer, res *pipeline.Result) {
	fmt.Fprintf(stdout, "instructions     %d\n", res.VMStats.Instructions)
	fmt.Fprintf(stdout, "calls            %d direct, %d closure\n", res.VMStats.Calls, res.VMStats.ClosCalls)
	fmt.Fprintf(stdout, "allocations      %d (%d words)\n", res.VMStats.Allocations, res.HeapStats.WordsAllocated)
	fmt.Fprintf(stdout, "collections      %d (%d words copied, %d ns total pause)\n",
		res.HeapStats.Collections, res.HeapStats.WordsCopied, res.GCStats.PauseNS)
	fmt.Fprintf(stdout, "peak live        %d words\n", res.HeapStats.PeakLive)
	fmt.Fprintf(stdout, "frames traced    %d (%d slots)\n", res.GCStats.FramesTraced, res.GCStats.SlotsTraced)
	fmt.Fprintf(stdout, "type_gc built    %d\n", res.GCStats.TypeGCBuilt)
	fmt.Fprintf(stdout, "gc metadata      %d words (%d descriptor nodes)\n", res.MetadataWords, res.DescNodes)
	fmt.Fprintf(stdout, "gc_words elided  %d of %d direct call sites\n", res.Anal.ElidedSites, res.Anal.DirectCallSites)
	fmt.Fprintf(stdout, "code size        %d words\n", res.CodeWords)
}

// Command tfgc compiles and runs MinML programs under a chosen garbage
// collection strategy.
//
//	tfgc run [-gc compiled|interp|appel|tagged] [-heap N] [-stats] [-gc-stats] prog.ml
//	tfgc check prog.ml           # type check; print top-level schemes
//	tfgc ir prog.ml              # dump the lowered IR
//	tfgc disasm prog.ml          # disassemble the generated bytecode
//	tfgc tasks [-entry a,b] prog.ml  # run entries as concurrent tasks
//	tfgc serve -period N -requests M [-mix a:3,b:1] prog.ml  # serve entries as requests
//	tfgc fmt prog.ml             # reprint the program from its AST
//	tfgc repl                    # interactive session
//
// The runtime flags — collector, heap discipline, nursery, allocation
// buffers, shards, fault injection, budgets, and for serve the arrival and
// admission flags (-period … -deadline) — are the rows of pipeline.Knobs,
// bound by pipeline.BindFlags and listed with their ranges and
// compatibility rules in README's "Modes and flags" table; -stats,
// -gc-stats, -entry and -mix are this tool's own.
//
// A program file that opens with a corpus header (workloads.Parse) gives
// tasks and serve what their flags leave out: the header's entries without
// -entry and its heap without -heap. tasks then fails naming every task
// whose value differs from the header's expect; serve counts such a request
// as wrong, and needs the header.
//
// serve runs an open-loop request generator over the entries (arrival
// period, burst, weighted service mix) with bounded admission, load
// shedding, client retry and the degradation ladder (shed arrivals → forced
// major collections → deadline cancellation). Its arrival scheduling and
// latency accounting are in virtual steps, so its p50/p99/p999 latencies
// are deterministic for a given -seed; wall time appears only in the
// throughput line (EXPERIMENTS.md, E14's verdict).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"tagfree/internal/mlang/parser"
	"tagfree/internal/mlang/printer"
	"tagfree/internal/mlang/types"
	"tagfree/internal/pipeline"
	"tagfree/internal/serve"
	"tagfree/internal/workloads"
)

// usageError distinguishes bad invocations (exit 2) from runtime failures
// (exit 1).
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func main() {
	if err := cli(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tfgc:", err)
		if _, ok := err.(*usageError); ok {
			fmt.Fprintln(os.Stderr, "usage: tfgc {run|check|ir|disasm|fmt|tasks|serve|repl} [flags] [file.ml]")
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// invocation is one parsed command line.
type invocation struct {
	cmd, file string
	// cfg.Opts is every command's runtime options; the rest of cfg is
	// serve's.
	cfg            serve.Config
	entries        []string
	stats, gcStats bool
}

// parse turns a command line into an invocation without reading the file:
// the flags, the entries and the mix. Every error it returns is a usage
// error.
func parse(args []string) (*invocation, error) {
	if len(args) < 1 {
		return nil, &usageError{"missing command"}
	}
	inv := &invocation{cmd: args[0], cfg: serve.Config{Burst: 1, Seed: 1}}
	switch inv.cmd {
	case "run", "check", "ir", "disasm", "fmt", "tasks", "serve", "repl":
	default:
		return nil, &usageError{fmt.Sprintf("unknown command %q", inv.cmd)}
	}
	fs := flag.NewFlagSet(inv.cmd, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	mixSpec := ""
	if inv.cmd == "serve" {
		pipeline.BindFlags(fs, &inv.cfg.Opts, &inv.cfg)
		fs.StringVar(&mixSpec, "mix", "", "weighted service mix, entry:weight[,entry:weight...] (empty = uniform)")
	} else {
		pipeline.BindFlags(fs, &inv.cfg.Opts)
	}
	fs.BoolVar(&inv.stats, "stats", false, "print execution and collection statistics")
	entries := fs.String("entry", "", "comma-separated task entry functions (tasks, serve; default: the file header's entries)")
	fs.BoolVar(&inv.gcStats, "gc-stats", false, "print per-collection GC telemetry after the run")
	if err := fs.Parse(args[1:]); err != nil {
		if err == flag.ErrHelp {
			fs.SetOutput(os.Stderr)
			fs.PrintDefaults()
		}
		return nil, &usageError{err.Error()}
	}
	if inv.cmd != "repl" {
		if fs.NArg() != 1 {
			return nil, &usageError{"exactly one source file expected"}
		}
		inv.file = fs.Arg(0)
	}
	if *entries != "" {
		inv.entries = strings.Split(*entries, ",")
	}
	var err error
	if inv.cfg.Mix, err = parseMix(mixSpec); err != nil {
		return nil, err
	}
	return inv, nil
}

// load reads the program file. When tasks or serve name a file that opens
// with a corpus header, it returns the header and takes from it the entries
// and the heap the flags left out.
func (inv *invocation) load() (string, *workloads.Program, error) {
	b, err := os.ReadFile(inv.file)
	if err != nil {
		return "", nil, err
	}
	src := string(b)
	if inv.cmd != "tasks" && inv.cmd != "serve" || !strings.HasPrefix(src, "(*") {
		return src, nil, nil
	}
	p, err := workloads.Parse(inv.file, src)
	if err != nil {
		return "", nil, err
	}
	if inv.entries == nil {
		inv.entries = p.Entries
	}
	if inv.cfg.Opts.HeapWords == 0 {
		inv.cfg.Opts.HeapWords = p.Heap
	}
	return src, &p, nil
}

// expect is the header's value for entry, if it states one.
func expect(hdr *workloads.Program, entry string) (int64, bool) {
	if hdr != nil {
		if i := slices.Index(hdr.Entries, entry); i >= 0 {
			return hdr.Expect[i], true
		}
	}
	return 0, false
}

// cli runs one tfgc invocation, writing program output to stdout. It is
// the whole command minus process concerns (exit codes, stderr), so tests
// can drive it directly.
func cli(args []string, stdout io.Writer) error {
	inv, err := parse(args)
	if err != nil {
		return err
	}
	var src string
	var hdr *workloads.Program
	if inv.cmd != "repl" {
		if src, hdr, err = inv.load(); err != nil {
			return err
		}
	}
	opts := inv.cfg.Opts
	if err := opts.CheckSizes(); err != nil {
		return &usageError{err.Error()}
	}

	switch inv.cmd {
	case "repl":
		repl(os.Stdin, stdout, opts)
	case "run":
		res, err := pipeline.Run(src, opts)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Output)
		fmt.Fprintf(stdout, "=> %d\n", res.Value)
		if inv.stats {
			printStats(stdout, res)
		}
		if inv.gcStats {
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
		return tasksCmd(stdout, inv, src, hdr)
	case "serve":
		return serveCmd(stdout, inv, src, hdr)
	}
	return nil
}

// tasksCmd runs the entries as one task group to completion, pipeline.RunTasks.
func tasksCmd(stdout io.Writer, inv *invocation, src string, hdr *workloads.Program) error {
	names, opts := inv.entries, inv.cfg.Opts
	if len(names) == 0 {
		return &usageError{"tasks: -entry a,b,... required"}
	}
	res, err := pipeline.RunTasks(src, names, opts)
	if err != nil {
		return err
	}
	faulted := 0
	var wrong []string
	for i, name := range names {
		if out := res.Outputs[i]; out != "" {
			fmt.Fprintf(stdout, "[%s] %s\n", name, out)
		}
		want, ok := expect(hdr, name)
		if f := res.Faults[i]; f != nil {
			faulted++
			fmt.Fprintf(stdout, "[%s] faulted: %v\n", name, f)
			if ok {
				wrong = append(wrong, fmt.Sprintf("%s faulted (expect %d)", name, want))
			}
			continue
		}
		fmt.Fprintf(stdout, "[%s] => %d\n", name, res.Values[i])
		if ok && res.Values[i] != want {
			wrong = append(wrong, fmt.Sprintf("%s => %d (expect %d)", name, res.Values[i], want))
		}
	}
	if inv.stats {
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
	if inv.gcStats {
		fmt.Fprint(stdout, pipeline.TelemetryTable(res.Telemetry, pipeline.TelemetryOptions{Tasks: true}))
	}
	if len(wrong) > 0 {
		return fmt.Errorf("tasks: the header's expect differs: %s", strings.Join(wrong, ", "))
	}
	if faulted == len(names) {
		return fmt.Errorf("tasks: all %d tasks faulted", faulted)
	}
	return nil
}

// serveCmd serves the entries as open-loop requests, serve.Run, and prints
// the report.
func serveCmd(stdout io.Writer, inv *invocation, src string, hdr *workloads.Program) error {
	if hdr == nil {
		return fmt.Errorf("serve: %s has no corpus header to judge request values by", inv.file)
	}
	cfg := inv.cfg
	cfg.Workload = workloads.TaskWorkload{Name: hdr.Name, Source: src, Entries: inv.entries, HeapWords: hdr.Heap}
	for _, e := range inv.entries {
		want, ok := expect(hdr, e)
		if !ok {
			return fmt.Errorf("serve: %s's header states no expect for entry %s", inv.file, e)
		}
		cfg.Workload.Expect = append(cfg.Workload.Expect, want)
	}
	res, err := serve.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, serve.NewReport(cfg, res).Table())
	if inv.gcStats {
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

// Package pipeline assembles the full compiler and runtime: parse → type
// check → lower → GC-possible analysis → code generation → execution under
// a chosen collection strategy. It is the public entry point used by the
// command-line tools, the examples and the benchmark harness.
package pipeline

import (
	"fmt"

	"tagfree/internal/code"
	"tagfree/internal/compile/codegen"
	"tagfree/internal/compile/gcanal"
	"tagfree/internal/compile/lower"
	"tagfree/internal/gc"
	"tagfree/internal/heap"
	"tagfree/internal/ir"
	"tagfree/internal/mlang/exhaust"
	"tagfree/internal/mlang/parser"
	"tagfree/internal/mlang/types"
	"tagfree/internal/tasking"
	"tagfree/internal/vm"
)

// Options configures compilation and execution.
type Options struct {
	// Strategy selects the collector (and with it the representation the
	// program is compiled for).
	Strategy gc.Strategy
	// HeapWords is the semispace size in words (default 1 << 16).
	HeapWords int
	// DisableGCWordElision keeps a gc_word on every call site even when
	// the §5.1 analysis proves it cannot collect. Required when tasks
	// suspend at calls (any call can become a suspension point), so
	// BuildTaskGroup sets it; also used by ablations.
	DisableGCWordElision bool
	// UseCFA additionally runs the higher-order (0-CFA) GC-possible
	// refinement, eliding gc_words on closure-call sites whose every
	// possible target cannot allocate (the §5.1 "abstract interpretation"
	// extension the paper defers).
	UseCFA bool
	// DisableLiveness makes every frame map contain all pointer-bearing
	// slots (ablation for experiment E3), and frames zero-filled at entry so
	// the slots not yet initialized hold no stale word. Note Appel mode
	// ignores frame maps entirely.
	DisableLiveness bool
	// MarkSweep runs the collector in mark/sweep discipline over a single
	// space of HeapWords words instead of semispace copying (the paper's
	// "will support mark/sweep collection as well", §2).
	MarkSweep bool
	// SuspendAtAllocs selects the paper's first §4 suspension policy for
	// tasking runs: Rgc is checked only inside allocation routines. A
	// single-task run always uses it.
	SuspendAtAllocs bool
	// DisableGCFastPath turns off the Compiled strategy's collection fast
	// path (frame-plan cache, pc→site cache, specialized trace kernels —
	// internal/gc/fastpath.go), restoring uncached per-frame resolution.
	// The differential suite's oracle configuration.
	DisableGCFastPath bool
	// MaxSteps bounds execution; 0 means effectively unbounded.
	MaxSteps int64
	// VerifyHeap runs the post-collection heap verifier after every
	// collection (structural invariants plus a typed re-walk of all
	// roots); a violation panics with *gc.VerifyError.
	VerifyHeap bool
	// Torture collects before every allocation — the heaviest fault
	// schedule, exercising every allocation site as a GC point.
	Torture bool
	// FailAllocNth fails the Nth allocation once; FailAllocEvery fails
	// every Kth. Both force the emergency-collection rung of the recovery
	// ladder deterministically.
	FailAllocNth   int64
	FailAllocEvery int64
	// GrowFactor > 1 enables the heap-growth rung of the recovery ladder;
	// MaxHeapWords (0 = unbounded) is its hard ceiling in semispace words.
	GrowFactor   float64
	MaxHeapWords int
	// NurseryWords > 0 enables a generational bump-allocated nursery of
	// 2×NurseryWords words per shard, all of it allocation space, in front
	// of the old region(s); objects above NurseryWords words are born old.
	// Every collection promotes every young survivor; minor collections
	// trace only the nursery, re-tracing stacks and globals as usual (the
	// paper's frame routines make that free) and consulting the old→young
	// remembered set fed by the interpreter's write barrier.
	NurseryWords int
	// TLABWords > 0 gives every task a private allocation buffer refilled
	// from the shared heap (or the nursery) in chunks of this many words
	// (-tlab N). A single-task run is a group of one and gets one too.
	TLABWords int
	// FailRefillsOnly restricts FailAllocNth/FailAllocEvery to TLAB refill
	// carves, so injection schedules target the refill path specifically.
	FailRefillsOnly bool
	// BudgetSteps > 0 faults any task that executes more than this many
	// instructions with a BudgetExceeded TaskFault (checked at the same
	// safe points as Rgc). In a single-task run the fault is the run's
	// error.
	BudgetSteps int64
	// BudgetAllocWords > 0 faults any task whose cumulative heap allocation
	// would exceed this many words.
	BudgetAllocWords int64
	// Shards > 1 partitions the nursery into per-shard young generations
	// and the task set into shard groups (task ID mod Shards): a shard
	// whose young space fills runs a minor collection over its own tasks
	// alone, without suspending the other shards' mutators. Major
	// collections stay global (all shards, stop-the-world). Rules lists
	// what it requires and excludes. 0 or 1 = the unsharded heap.
	Shards int
	// ShardAssign, when non-nil, overrides the task→shard map by task ID
	// (the interleaving fuzz permutes assignments; entries are reduced mod
	// Shards). Ignored unless Shards > 1.
	ShardAssign []int
}

// heapWords is the semispace size a run gets: HeapWords, or the default.
func (o Options) heapWords() int {
	if o.HeapWords == 0 {
		return 1 << 16
	}
	return o.HeapWords
}

// faultPlan assembles the fault-injection plan implied by the options, or
// nil when no fault knob is set.
func (o Options) faultPlan() *gc.FaultPlan {
	if !o.Torture && o.FailAllocNth == 0 && o.FailAllocEvery == 0 {
		return nil
	}
	return &gc.FaultPlan{
		Torture:    o.Torture,
		FailNth:    o.FailAllocNth,
		FailEvery:  o.FailAllocEvery,
		RefillOnly: o.FailRefillsOnly,
	}
}

// Result is the outcome of running a program.
type Result struct {
	// Raw is main's result word; Value is its integer decoding.
	Raw    code.Word
	Value  int64
	Output string

	VMStats   vm.Stats
	GCStats   gc.Stats
	HeapStats heap.Stats
	// Telemetry is the collector's per-collection record stream (render
	// with TelemetryTable / TelemetryJSON).
	Telemetry *gc.Telemetry
	Anal      gcanal.Stats
	// MetadataWords is the collector's GC metadata footprint.
	MetadataWords int64
	// DescNodes is the number of unique descriptor nodes in the program.
	DescNodes int
	// CodeWords is the generated code size.
	CodeWords int
}

// Frontend runs parse, type check and lowering, returning the analyzed IR.
func Frontend(src string) (*ir.Program, *types.Info, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	info, err := types.Check(prog)
	if err != nil {
		return nil, nil, err
	}
	irp, err := lower.Lower(prog, info)
	if err != nil {
		return nil, nil, err
	}
	return irp, info, nil
}

// Build compiles source to a program for the given strategy's
// representation, running the GC-possible analysis first.
func Build(src string, opts Options) (*code.Program, *gcanal.Result, error) {
	irp, _, err := Frontend(src)
	if err != nil {
		return nil, nil, err
	}
	return compileIR(irp, opts)
}

// compileIR is the back half of Build: GC-possible analysis and code
// generation over a lowered program.
func compileIR(irp *ir.Program, opts Options) (*code.Program, *gcanal.Result, error) {
	var anal *gcanal.Result
	if opts.UseCFA {
		anal = gcanal.AnalyzeCFA(irp)
	} else {
		anal = gcanal.Analyze(irp)
	}
	if opts.DisableGCWordElision {
		for _, f := range irp.Funcs {
			ir.WalkRhss(f, func(r ir.Rhs) bool {
				switch call := r.(type) {
				case *ir.RCall:
					call.CanGC = true
				case *ir.RCallClos:
					call.CanGC = true
				}
				return true
			})
		}
	}
	prog, err := codegen.Compile(irp, opts.Strategy.CompatibleRepr())
	if err != nil {
		return nil, nil, err
	}
	if opts.DisableLiveness {
		widenFrameMaps(prog)
	}
	return prog, anal, nil
}

// widenFrameMaps replaces every site's live map with the owning function's
// full slot map (the E3 ablation: collection without liveness).
func widenFrameMaps(prog *code.Program) {
	for _, si := range prog.Sites {
		fi := prog.Funcs[si.Func]
		si.Live = fi.AllSlots
	}
}

// Run compiles and executes a program.
func Run(src string, opts Options) (*Result, error) {
	prog, anal, err := Build(src, opts)
	if err != nil {
		return nil, err
	}
	return RunProgram(prog, anal, opts)
}

// newGroup assembles the runtime for a compiled program — heap, nursery,
// collector and every option wired onto a task group with no task spawned.
// Every run goes through it: RunProgram and Eval (a group of one, single
// set), BuildTaskGroup (the tasking and serving paths).
func newGroup(prog *code.Program, opts Options, single bool) (*tasking.Group, error) {
	if err := opts.validate(single); err != nil {
		return nil, err
	}
	semi := opts.heapWords()
	var h *heap.Heap
	if opts.MarkSweep {
		h = heap.NewMarkSweep(prog.Repr, semi)
	} else {
		h = heap.New(prog.Repr, semi)
	}
	if opts.NurseryWords > 0 {
		// Before the first allocation: the nursery re-lays the heap out with
		// the young areas (one per shard) in front of the old region.
		h.EnableNurseryShards(opts.NurseryWords, max(opts.Shards, 1))
	}
	g, err := tasking.NewGroupWith(prog, h, opts.Strategy, nil)
	if err != nil {
		return nil, err
	}
	g.Col.DisableFastPath = opts.DisableGCFastPath
	g.Col.Faults = opts.faultPlan()
	if opts.VerifyHeap {
		g.Col.Verify = true
		h.SetVerify(true)
	}
	// Frame maps widened by DisableLiveness name slots the function has not
	// initialized yet, so they need zeroed frames as much as the Appel and
	// tagged strategies (the constructor's default) do.
	g.ZeroFill = g.ZeroFill || opts.DisableLiveness
	g.GrowFactor = opts.GrowFactor
	g.MaxHeapWords = opts.MaxHeapWords
	g.TLABWords = opts.TLABWords
	if opts.Shards > 1 {
		g.Shards = opts.Shards
		g.ShardAssign = opts.ShardAssign
	}
	g.BudgetSteps = opts.BudgetSteps
	g.BudgetAllocWords = opts.BudgetAllocWords
	if opts.SuspendAtAllocs {
		g.Policy = tasking.SuspendAtAllocs
	}
	if opts.MaxSteps > 0 {
		g.MaxSteps = opts.MaxSteps
	}
	return g, nil
}

// RunProgram executes an already compiled program.
func RunProgram(prog *code.Program, anal *gcanal.Result, opts Options) (*Result, error) {
	g, raw, err := runMain(prog, opts)
	if err != nil {
		return nil, err
	}
	res := singleResult(g, raw)
	if anal != nil {
		res.Anal = anal.Stats
	}
	return res, nil
}

// runMain runs a program's main as a group of one task. Every option means
// what it means for a tasking run — allocation buffers and per-task budgets
// included — except Shards, which Rules refuses for a single-task run.
func runMain(prog *code.Program, opts Options) (*tasking.Group, code.Word, error) {
	if prog.MainFunc < 0 {
		return nil, 0, fmt.Errorf("program has no main function")
	}
	g, err := newGroup(prog, opts, true)
	if err != nil {
		return nil, 0, err
	}
	raw, err := g.RunMain()
	return g, raw, err
}

// singleResult gathers a finished group of one into a Result.
func singleResult(g *tasking.Group, raw code.Word) *Result {
	main := g.Tasks[0]
	res := &Result{
		Raw:           raw,
		Value:         code.DecodeInt(g.Prog.Repr, raw),
		Output:        g.InitTask().Out.String() + main.Out.String(),
		GCStats:       g.Col.Stats,
		HeapStats:     g.Heap.Stats,
		Telemetry:     &g.Col.Telem,
		MetadataWords: g.Col.MetadataSize,
		DescNodes:     g.Prog.DescNodes,
		CodeWords:     len(g.Prog.Code),
	}
	// Init and main ran one after the other on an empty stack, as they would
	// on one machine: counts add, high-water marks do not.
	for _, t := range []*tasking.Task{g.InitTask(), main} {
		st := &res.VMStats
		st.Instructions += t.Steps
		st.Calls += t.Calls
		st.ClosCalls += t.ClosCalls
		st.Allocations += t.Allocations
		st.ZeroFilledWords += t.ZeroFilledWords
		st.MaxStackWords = max(st.MaxStackWords, t.MaxStackWords)
		st.MaxFrameDepth = max(st.MaxFrameDepth, t.MaxFrameDepth)
	}
	return res
}

// Warnings type-checks a program and returns its pattern-match
// exhaustiveness and redundancy diagnostics (compilation proceeds
// regardless; an unmatched case is a runtime trap).
func Warnings(src string) ([]exhaust.Warning, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := types.Check(prog)
	if err != nil {
		return nil, err
	}
	return exhaust.Check(prog, info), nil
}

// Strategies lists all four collection strategies with stable names, in
// presentation order for the experiment tables.
var Strategies = []gc.Strategy{gc.StratCompiled, gc.StratInterp, gc.StratAppel, gc.StratTagged}

// MustRun is a helper for examples: it runs a program and panics on error.
func MustRun(src string, opts Options) *Result {
	r, err := Run(src, opts)
	if err != nil {
		panic(fmt.Sprintf("pipeline.MustRun: %v", err))
	}
	return r
}

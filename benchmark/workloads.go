package main

// The eight workloads and how one timed section of each is executed and
// checked. Every configuration is pipeline.Options zero values except the
// fields set here, so a later change of a default shows up in the numbers.

import (
	"fmt"
	"time"

	"tagfree/internal/code"
	"tagfree/internal/compile/gcanal"
	"tagfree/internal/gc"
	"tagfree/internal/heap"
	"tagfree/internal/pipeline"
	"tagfree/internal/serve"
	"tagfree/internal/tasking"
	"tagfree/internal/vm"
	"tagfree/internal/workloads"
)

type kind int

const (
	kindVM      kind = iota // single-task interpreter: pipeline.RunProgram
	kindTasks               // task group: BuildTaskGroup + Spawn + RunInit + Run
	kindCompile             // the timed section is pipeline.Build alone
	kindServe               // open-loop serve.Run
)

type workload struct {
	name string
	why  string
	kind kind
	gen  func(seed int64, scale float64) program
	opts pipeline.Options
}

// The taskmix pair shares one generator and seed: same program, same work.
var workloadTable = []workload{
	{
		name: "calls", kind: kindVM, gen: genCalls,
		why: "Call-heavy arithmetic with zero allocation: vm.loop does all the work, heap and gc none; a collector change must not move it.",
	},
	{
		name: "churn", kind: kindVM, gen: genChurn,
		opts: pipeline.Options{HeapWords: 2048},
		why:  "Seeded mix of the corpus's alloc-heavy shapes on a 2k-word semispace: bump allocation and per-collection fixed cost dominate, trace does not.",
	},
	{
		name: "resident", kind: kindTasks, gen: genResident,
		opts: pipeline.Options{HeapWords: 128 << 10},
		why:  "4 tasks hold ~80k live words in a 128k-word semispace under light churn: every collection copies the whole live set, so gc trace/copy dominates.",
	},
	{
		name: "polystack", kind: kindTasks, gen: genPolystack,
		opts: pipeline.Options{HeapWords: 4096},
		why:  "4 tasks, depth-640 towers of one polymorphic frame at four instantiations, 4k-word heap: root resolution and the frame-plan cache dominate, trace is ~0.",
	},
	{
		name: "taskmix", kind: kindTasks, gen: genTaskmix,
		why: "8 tasks repoint long-lived ref cells at fresh lists on default options: tasking.step, the scheduler and Rgc suspend waves dominate.",
	},
	{
		name: "taskmix-gen", kind: kindTasks, gen: genTaskmix,
		opts: pipeline.Options{NurseryWords: 2048, TLABWords: 64, Shards: 2},
		why:  "The same program and seed as taskmix with nursery, TLABs and 2 shards: the whole-run cost of write barrier, remembered set, minors and refills.",
	},
	{
		name: "compile", kind: kindCompile, gen: genCompile,
		why: "One generated 0.43 MB source (~1.1k datatypes, ~5.6k functions); the timed section is pipeline.Build only, so mlang and compile do all the work.",
	},
	{
		name: "serve", kind: kindServe,
		gen:  func(seed int64, _ float64) program { return genServe(seed) },
		opts: pipeline.Options{MarkSweep: true, HeapWords: 4096, BudgetSteps: 2000000},
		why:  "Open-loop arrivals of a seeded 4-class mix at ~0.5 utilisation on a mark/sweep heap: the only path through admission, shed/retry, free lists, mark and sweep.",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serveRequests is the full-scale request count: p99 has 10 samples beyond
// it. serve.Run's wall time is quadratic in requests (see README), which is
// what keeps this from being larger.
const serveRequests = 1000

// serveConfig is an open loop (independent users; latency counts from the
// step a request was due) at about 0.55 utilisation. Bursts of 10 overflow
// the queue of 8, so every burst sheds two arrivals into client retry; six
// retries with doubling backoff outlast four heavy requests in flight, so on
// every seed tried no request is lost. The heap watermark is off: on a
// mark/sweep heap it latches (see README, Findings).
func serveConfig(p program, opts pipeline.Options, seed int64, scale float64) serve.Config {
	return serve.Config{
		Workload: workloads.TaskWorkload{Name: "serve", Source: p.source, Entries: p.entries, Expect: p.expect},
		Mix: []serve.MixEntry{
			{Entry: "req_tiny", Weight: 6}, {Entry: "req_small", Weight: 3},
			{Entry: "req_medium", Weight: 2}, {Entry: "req_heavy", Weight: 1},
		},
		Opts:        opts,
		Period:      180000,
		Burst:       10,
		Backoff:     8000,
		Requests:    scaled(serveRequests, scale),
		Seed:        seed,
		QueueDepth:  8,
		MaxInflight: 4,
		MaxRetries:  6,
		Deadline:    400000,
	}
}

// instance is one generated and built workload input, ready to run.
type instance struct {
	w     workload
	seed  int64
	scale float64
	p     program
	opts  pipeline.Options

	// kindVM: the program built during set-up, reused by every run.
	prog *code.Program
	anal *gcanal.Result
	// kindTasks: a group built ahead of the next run (single use).
	group   *tasking.Group
	entries []int
}

// pause is one collection's stop, as short as the percentiles need it.
type pause struct {
	ns   int64
	kind string // "minor" or "major" on a generational heap, else ""
}

// sample is what one timed section produced. It keeps counters and copies,
// never the finished heap or group, so that what a run retains (and with it
// peak_rss_mb) does not depend on how many repeats fit the time budget.
type sample struct {
	wall, cpu time.Duration
	pauses    []pause
	attempted int
	failed    int
	wrong     []string // value mismatches and faults, for the report

	vm      vm.Stats
	task    tasking.Stats
	heap    heap.Stats
	gc      gc.Stats
	gen     gc.GenStats
	resil   gc.ResilienceStats
	codeWds int
	metaWds int64

	// kindServe only.
	serve     serve.Stats
	steps     int64
	latencies []int64 // ascending
}

// newInstance generates the input and builds it: the set-up half that is
// not warm-up. With a tracer, the front end and compiler run layer by layer
// inside spans first (see buildTraced).
func newInstance(w workload, seed int64, scale float64, opts pipeline.Options, tr *tracer) (*instance, error) {
	in := &instance{w: w, seed: seed, scale: scale, opts: opts}
	tr.span(layerBench, "generate", func() { in.p = w.gen(seed, scale) })
	var err error
	switch w.kind {
	case kindVM:
		tr.span(layerCompile, "pipeline.Build", func() { in.prog, in.anal, err = pipeline.Build(in.p.source, opts) })
	case kindTasks:
		tr.span(layerCompile, "pipeline.BuildTaskGroup", func() { err = in.prepare() })
	}
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	return in, nil
}

// prepare does the untimed per-run work: a task group runs once, so each
// run needs a fresh one.
func (in *instance) prepare() error {
	if in.w.kind != kindTasks || in.group != nil {
		return nil
	}
	var err error
	in.group, in.entries, err = pipeline.BuildTaskGroup(in.p.source, in.p.entries, in.opts)
	return err
}

// check compares entry values with the Go-computed expectations; faults,
// when not nil, holds each entry's fault or nil.
func (s *sample) check(p program, values []int64, faults []error) {
	s.attempted = len(p.entries)
	for i, name := range p.entries {
		switch {
		case faults != nil && faults[i] != nil:
			s.wrong = append(s.wrong, fmt.Sprintf("%s faulted: %v", name, faults[i]))
		case values[i] != p.expect[i]:
			s.wrong = append(s.wrong, fmt.Sprintf("%s = %d, want %d", name, values[i], p.expect[i]))
		}
	}
	s.failed = len(s.wrong)
}

// run executes one timed section and checks every value it produced. An
// error is a run that could not finish at all; wrong values are counted in
// the sample instead.
func (in *instance) run(tr *tracer) (*sample, error) {
	if err := in.prepare(); err != nil {
		return nil, fmt.Errorf("%s: %w", in.w.name, err)
	}
	s := &sample{}
	var err error
	cpu0 := cpuTime()
	switch in.w.kind {
	case kindVM:
		var res *pipeline.Result
		s.wall = tr.span(layerVM, "pipeline.RunProgram", func() { res, err = pipeline.RunProgram(in.prog, in.anal, in.opts) })
		s.cpu = cpuTime() - cpu0
		if err != nil {
			return nil, fmt.Errorf("%s: run: %w", in.w.name, err)
		}
		s.fromResult(res)
		s.check(in.p, []int64{res.Value}, nil)

	case kindCompile:
		var prog *code.Program
		var anal *gcanal.Result
		s.wall = tr.span(layerCompile, "pipeline.Build", func() { prog, anal, err = pipeline.Build(in.p.source, in.opts) })
		s.cpu = cpuTime() - cpu0
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", in.w.name, err)
		}
		// Untimed: run main to prove the build right.
		res, err := pipeline.RunProgram(prog, anal, in.opts)
		if err != nil {
			return nil, fmt.Errorf("%s: check run: %w", in.w.name, err)
		}
		s.fromResult(res)
		s.check(in.p, []int64{res.Value}, nil)

	case kindTasks:
		g := in.group
		in.group = nil
		s.wall = tr.span(layerTasking, "Group.Run", func() {
			for _, e := range in.entries {
				g.Spawn(e)
			}
			if err = g.RunInit(); err == nil {
				err = g.Run()
			}
		})
		s.cpu = cpuTime() - cpu0
		if err != nil {
			return nil, fmt.Errorf("%s: run: %w", in.w.name, err)
		}
		s.fromGroup(g)
		values := make([]int64, len(g.Tasks))
		faults := make([]error, len(g.Tasks))
		for i, t := range g.Tasks {
			if t.Fault != nil {
				faults[i] = t.Fault
			} else {
				values[i] = code.DecodeInt(g.Prog.Repr, t.Result)
			}
		}
		s.check(in.p, values, faults)

	case kindServe:
		cfg := serveConfig(in.p, in.opts, in.seed, in.scale)
		var res *serve.Result
		s.wall = tr.span(layerServe, "serve.Run", func() { res, err = serve.Run(cfg) })
		s.cpu = cpuTime() - cpu0
		if err != nil { // includes an unbalanced ledger
			return nil, fmt.Errorf("%s: run: %w", in.w.name, err)
		}
		s.fromGroup(res.Group)
		s.serve, s.steps, s.latencies = res.Stats, res.Steps, res.Latencies
		st := res.Stats
		s.attempted = int(st.Requests)
		s.failed = int(st.Dropped + st.Canceled + st.Faulted + st.WrongResults)
		if st.WrongResults > 0 {
			s.wrong = append(s.wrong, fmt.Sprintf("%d completed requests returned a wrong value", st.WrongResults))
		}
	}
	return s, nil
}

func (s *sample) fromResult(res *pipeline.Result) {
	s.vm, s.gc, s.heap = res.VMStats, res.GCStats, res.HeapStats
	s.keepPauses(res.Telemetry.Records)
	s.resil = res.Telemetry.Resilience
	s.codeWds, s.metaWds = res.CodeWords, res.MetadataWords
}

func (s *sample) fromGroup(g *tasking.Group) {
	s.task, s.gc, s.heap, s.gen = g.Stats, g.Col.Stats, g.Heap.Stats, g.Col.Gen
	s.keepPauses(g.Col.Telem.Records)
	s.resil = g.Col.Telem.Resilience
	s.codeWds, s.metaWds = len(g.Prog.Code), g.Col.MetadataSize
}

func (s *sample) keepPauses(recs []gc.CollectionRecord) {
	s.pauses = make([]pause, len(recs))
	for i, r := range recs {
		s.pauses[i] = pause{r.PauseNS, r.Kind}
	}
}

// pauseTotal sums the sample's collection pauses.
func (s *sample) pauseTotal() time.Duration {
	var ns int64
	for _, p := range s.pauses {
		ns += p.ns
	}
	return time.Duration(ns)
}

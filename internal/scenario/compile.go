package scenario

import (
	"fmt"
	"strings"

	"tagfree/internal/gc"
	"tagfree/internal/mlang/token"
	"tagfree/internal/pipeline"
	"tagfree/internal/serve"
	"tagfree/internal/workloads"
)

// The scenario compiler: crossing a scenario's axes into matrix cells.
// Each cell is exactly one pipeline.RunTasks invocation — the same
// Options struct a hand-coded harness (cmd/tfgc tasks, the telemetry
// report, the bench suites) would build, which is what the differential
// suite pins: a compiled cell must be configuration-identical to its
// hand-written twin, so the DSL adds breadth without adding a second
// execution semantics.

// Cell is one compiled matrix cell: a workload under one fully resolved
// configuration.
type Cell struct {
	// Scenario and Name identify the cell; Name is
	// "<scenario>/<strategy>/<discipline-key>".
	Scenario string
	Name     string

	Workload   workloads.TaskWorkload
	Strategy   gc.Strategy
	Discipline Discipline
	// Shards is the heap shard count (1 = the unsharded heap). When the
	// scenario sets the shards key, the cell name carries a "/sh<k>"
	// suffix; otherwise names keep their historical shape.
	Shards  int
	Repeats int

	// Opts is the exact configuration RunMatrix passes to
	// pipeline.RunTasks.
	Opts pipeline.Options

	// Serve, for arrival-bearing scenarios, is the open-loop serving plan
	// (arrival schedule, admission control, retry policy, service mix);
	// RunMatrix fills in Workload and Opts from the cell and runs the cell
	// through serve.Run instead of pipeline.RunTasks.
	Serve *serve.Config

	// Skip is non-empty for combinations the runtime rejects by design
	// (e.g. mark/sweep under the tagged baseline); the cell is reported,
	// not run.
	Skip string
}

// Compile crosses every scenario's axes into cells, in scenario order
// with strategies varying slowest. Unknown workloads and contradictory
// sizes are positioned errors pointing at the scenario source.
func Compile(scs []*Scenario) ([]Cell, error) {
	var cells []Cell
	for _, sc := range scs {
		w, ok := workloads.TaskByName(sc.Workload)
		if !ok {
			return nil, sc.compileErrorf(sc.keyPos["workload"],
				"unknown task workload %q (have %s)", sc.Workload, taskWorkloadList())
		}
		sized := sc.Opts
		if sized.HeapWords == 0 {
			sized.HeapWords = w.HeapWords
		}
		if err := sized.CheckSizes(); err != nil {
			return nil, sc.compileErrorf(sc.keyPos["tlab"], "%v", err)
		}
		w.HeapWords = sized.HeapWords
		srv, err := compileServe(sc, w)
		if err != nil {
			return nil, err
		}
		for _, strat := range sc.Strategies {
			for _, disc := range sc.Disciplines {
				for _, shards := range sc.Shards {
					cells = append(cells, compileCell(sc, w, srv, strat, disc, shards))
				}
			}
		}
	}
	return cells, nil
}

// compileServe resolves an arrival-bearing scenario's serving plan,
// validating the mix against the workload's entry functions. Workload and
// Opts stay zero: they vary per cell, so the runner fills them in.
func compileServe(sc *Scenario, w workloads.TaskWorkload) (*serve.Config, error) {
	if sc.Arrivals == nil {
		return nil, nil
	}
	known := map[string]bool{}
	for _, e := range w.Entries {
		known[e] = true
	}
	var mix []serve.MixEntry
	for _, m := range sc.Mix {
		if !known[m.Entry] {
			return nil, sc.compileErrorf(m.Pos,
				"mix entry %q is not an entry of workload %s (have %s)",
				m.Entry, w.Name, strings.Join(w.Entries, ", "))
		}
		mix = append(mix, serve.MixEntry{Entry: m.Entry, Weight: m.Weight})
	}
	cfg := *sc.Arrivals
	cfg.Mix = mix
	return &cfg, nil
}

// compileCell resolves one (strategy, discipline, shards) point.
func compileCell(sc *Scenario, w workloads.TaskWorkload, srv *serve.Config, strat gc.Strategy, disc Discipline, shards int) Cell {
	name := fmt.Sprintf("%s/%s/%s", sc.Name, strat, disc.Key())
	if _, set := sc.keyPos["shards"]; set {
		name += fmt.Sprintf("/sh%d", shards)
	}
	c := Cell{
		Scenario:   sc.Name,
		Name:       name,
		Workload:   w,
		Strategy:   strat,
		Discipline: disc,
		Shards:     shards,
		Repeats:    sc.Repeats,
		Serve:      srv,
		Opts:       sc.Opts,
	}
	c.Opts.Strategy = strat
	c.Opts.HeapWords = w.HeapWords
	c.Opts.MarkSweep = disc == MarkSweep
	if shards > 1 {
		// shards 1 stays zero-valued so a defaulted axis compiles to an
		// Options struct identical to its hand-written twin.
		c.Opts.Shards = shards
	}
	// Combinations pipeline.Rules rejects become reported skips, so the
	// matrix still covers every strategy × discipline cell. ALL applicable
	// reasons go into the one Skip string, so a cell out of the envelope on
	// several counts is still exactly one skipped row in the matrix totals.
	c.Skip = strings.Join(c.Opts.Refusals(), "; ")
	if c.Skip != "" {
		// The row reports the plain configuration: none of the modes that
		// put it outside the envelope ran.
		c.Opts.Shards = 0
	}
	return c
}

// compileErrorf builds a compile-time diagnostic, prefixed with the
// scenario's source file when LoadPath recorded one — Compile runs over
// scenarios pooled from many files, so the position alone is ambiguous.
func (sc *Scenario) compileErrorf(pos token.Pos, format string, args ...any) error {
	err := posErrorf(pos, format, args...)
	if sc.File == "" {
		return err
	}
	return fmt.Errorf("%s:%w", sc.File, err)
}

// taskWorkloadList renders the tasking corpus names for diagnostics.
func taskWorkloadList() string {
	names := make([]string, len(workloads.Tasking))
	for i, w := range workloads.Tasking {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

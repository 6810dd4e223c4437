// Package scenario implements the .tfs scenario language: a small
// declarative notation for GC benchmark scenarios, compiled into the
// corpus-run machinery (pipeline.RunTasks) the experiments and telemetry
// reports already use. A scenario names a task workload and the matrix
// axes to cross it with — collection strategies, heap disciplines, heap
// shards — plus the runtime knobs (heap, nursery, TLAB) and a
// fault-injection block, so that widening the evaluation no longer means
// editing Go in internal/workloads: workloads stay code, but the
// *configurations* under which they run become data.
//
// A .tfs file holds one or more scenarios:
//
//	# taskchurn across every strategy and discipline.
//	scenario churn-all {
//	  workload    taskchurn
//	  strategies  compiled interp appel tagged
//	  disciplines copying marksweep
//	  faults {
//	    torture
//	    verify-heap
//	  }
//	}
//
// `#` comments run to end of line; statements end at end of line. Every
// key is validated when parsed — unknown keys, unknown strategy or
// discipline names and out-of-range sizes are positioned errors (see
// PosError). The scalar keys, their ranges and the sentences are rows of
// pipeline.Knobs, the table the CLIs bind their flags from, so a scenario
// that parses is a configuration those tools accept, and the reverse.
//
// Compile crosses the axes into matrix cells, one pipeline.Options per
// (strategy, discipline, shards); RunMatrix executes them and renders the
// comparative report (an aligned table plus a tagfree-bench/v1 JSON
// snapshot). Cells whose combination pipeline.Rules rejects (mark/sweep
// or a nursery under the tagged baseline) are emitted as skipped rows
// rather than dropped, so every strategy × discipline × scenario cell is
// accounted for.
package scenario

import (
	"fmt"

	"tagfree/internal/gc"
	"tagfree/internal/mlang/token"
	"tagfree/internal/pipeline"
	"tagfree/internal/serve"
)

// Scenario is one parsed scenario: a workload crossed with matrix axes
// under shared runtime knobs. Zero-valued axes get defaults at parse time
// (all strategies, copying discipline, one shard, one repeat); sizes default
// to 0 = "use the workload's recommendation" (heap) or "off" (nursery,
// tlab).
type Scenario struct {
	Name string
	// Pos is the position of the scenario header, for diagnostics.
	Pos token.Pos
	// File is the .tfs file the scenario came from (set by LoadPath;
	// empty for Parse), prefixed onto compile-time diagnostics.
	File string

	// Workload names a task workload from workloads.Tasking.
	Workload string

	// The matrix axes.
	Strategies  []gc.Strategy
	Disciplines []Discipline
	// Shards crosses heap shard counts (task→shard partitioning with
	// independent per-shard minor collections).
	Shards []int

	// Repeats is the best-of wall-time repetition count per cell.
	Repeats int

	// Opts holds the scalar knobs every cell shares — the scenario body's
	// heap, nursery and tlab, the faults block and the arrivals block's
	// budgets — written by the parser straight into the fields their
	// pipeline.Knobs rows name (0 = default or off). The axis fields stay
	// zero until Compile crosses them in. Cells whose axis point puts a knob
	// outside pipeline.Rules become reported skips.
	Opts pipeline.Options

	// Arrivals, when present, turns every cell into a serve-harness run
	// (open-loop arrivals, bounded admission, the degradation ladder)
	// instead of a closed-loop corpus run: the arrivals block's keys,
	// written into the serve.Config fields their rows name (zero-valued
	// knobs take the serve defaults). Mix is its weighted service mix over
	// the workload's entry functions.
	Arrivals *serve.Config
	Mix      []MixItem

	// keyPos remembers where each key appeared, so compile-time
	// diagnostics (unknown workload, tlab larger than the heap) can point
	// at source like parse-time ones.
	keyPos map[string]token.Pos
}

// MixItem weights one service class of the arrival mix. Pos points at the
// entry name so Compile can reject entries the workload lacks with a
// positioned diagnostic.
type MixItem struct {
	Entry  string
	Weight int
	Pos    token.Pos
}

// Discipline is a heap discipline axis value.
type Discipline int

// The two heap disciplines a scenario can cross with.
const (
	Copying Discipline = iota
	MarkSweep
)

// String returns the discipline's display name (the spelling the snapshots
// and the telemetry tables use).
func (d Discipline) String() string {
	if d == MarkSweep {
		return "mark/sweep"
	}
	return "copying"
}

// Key returns the discipline's DSL spelling.
func (d Discipline) Key() string {
	if d == MarkSweep {
		return "marksweep"
	}
	return "copying"
}

// The two keys whose values land in no pipeline.Options or serve.Config
// field still take their range and sentence from a table row.
var (
	repeatsKnob   = pipeline.Knob{Key: "repeats", Kind: pipeline.Int, Min: 1, Max: 100, Noun: "repeats", Field: "Repeats"}
	mixWeightKnob = pipeline.Knob{Kind: pipeline.Int, Min: 1, Max: 1 << 20, Noun: "mix weight"}
)

// PosError is a scenario diagnostic with a source position; every error
// the lexer, parser and compiler produce for a given .tfs input is one
// (or wraps one), so tooling can always point at the offending line:col.
type PosError struct {
	Pos token.Pos
	Err error
}

// Error renders the diagnostic as "line:col: message".
func (e *PosError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Err) }

// Unwrap exposes the underlying error.
func (e *PosError) Unwrap() error { return e.Err }

// posErrorf builds a positioned diagnostic.
func posErrorf(pos token.Pos, format string, args ...any) *PosError {
	return &PosError{Pos: pos, Err: fmt.Errorf(format, args...)}
}

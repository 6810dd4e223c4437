package experiments

// E15 — mostly-concurrent marking: the max-pause / throughput trade.
//
// A stop-the-world mark/sweep collection stops every task for the whole
// mark+sweep; -gc-concurrent splits the cycle into a brief root-snapshot
// pause, budgeted mark slices interleaved with task execution, and a
// bounded final pause (residual drain + memoized stack re-scan + sweep).
// The experiment measures what the mutator actually sees: individual
// stop events — each stop-the-world pause, and each initial/final pause
// of a concurrent cycle separately — against end-to-end wall time, on
// the pointer-heavy half of the tasking corpus where marking is the
// pause.

import (
	"fmt"
	"sort"
	"time"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/stats"
	"tagfree/internal/workloads"
)

// e15TriggerPct starts cycles at 50% heap occupancy — early enough that
// every corpus workload completes cycles at its recommended heap size.
// e15MarkBudget caps each slice at 256 words so marking actually spreads
// over increments at corpus heap sizes (the 4096-word default would
// drain most of these live sets in one slice).
const (
	e15TriggerPct = 50
	e15MarkBudget = 256
)

// e15Workloads is the pointer-heavy subset: list churn, tree building,
// shared mutable structure and deep polymorphic towers, where marking
// dominates the pause.
var e15Workloads = []string{"taskchurn", "tasktree", "taskmutate", "taskdeep"}

// concMarkSummary is one configuration's pause-vs-throughput measurement.
type concMarkSummary struct {
	wallNS int64
	stops  []int64 // ascending; one entry per mutator stop event
	gcs    int64
	cycles int64
	slices int64
	grays  int64
	aborts int64
}

// concMarkRun executes one end-to-end tasking run with stop-the-world or
// concurrent mark/sweep, best-of-repeats by wall time.
func concMarkRun(w workloads.TaskWorkload, conc bool, repeats int) concMarkSummary {
	var best concMarkSummary
	for r := 0; r < repeats; r++ {
		opts := pipeline.Options{
			Strategy:  gc.StratCompiled,
			HeapWords: w.HeapWords,
			MarkSweep: true,
		}
		if conc {
			opts.GCConcurrent = true
			opts.ConcTriggerPct = e15TriggerPct
			opts.ConcMarkBudget = e15MarkBudget
		}
		start := time.Now()
		res, err := pipeline.RunTasks(w.Source, w.Entries, opts)
		wall := time.Since(start).Nanoseconds()
		if err != nil {
			panic(fmt.Sprintf("E15 %s conc=%v: %v", w.Name, conc, err))
		}
		for i, e := range w.Expect {
			if res.Values[i] != e {
				panic(fmt.Sprintf("E15 %s conc=%v: task %d = %d, want %d", w.Name, conc, i, res.Values[i], e))
			}
		}
		if r > 0 && wall >= best.wallNS {
			continue
		}
		s := concMarkSummary{wallNS: wall, gcs: int64(len(res.Telemetry.Records))}
		for i := range res.Telemetry.Records {
			rec := &res.Telemetry.Records[i]
			if rec.Conc != nil {
				s.stops = append(s.stops, rec.Conc.InitialPauseNS, rec.Conc.FinalPauseNS)
				s.cycles++
				s.slices += rec.Conc.MarkSlices
				s.grays += rec.Conc.BarrierGrays
			} else {
				s.stops = append(s.stops, rec.PauseNS)
			}
		}
		sort.Slice(s.stops, func(i, j int) bool { return s.stops[i] < s.stops[j] })
		s.aborts = res.Telemetry.Resilience.ConcAborts
		best = s
	}
	return best
}

// E15ConcurrentMark renders the trade: per workload, the stop-the-world
// row against the concurrent row — stop-event percentiles and maximum
// versus end-to-end wall time, with the cycle anatomy (slices, barrier
// grays, watchdog aborts) alongside.
func E15ConcurrentMark(repeats int) *Table {
	t := &Table{
		ID:    "E15",
		Title: "mostly-concurrent marking: max pause vs throughput",
		Claim: "the frame-map machinery that makes stop-the-world pauses cheap also makes them splittable: snapshotting roots through memoized frame plans is fast enough to do twice, so marking runs in budgeted slices between task quanta and the mutator's longest stop shrinks to the larger of two bounded pauses, at a small wall-time cost",
		Header: []string{"workload", "mode", "wall", "gcs", "cycles",
			"stop p50", "stop p99", "stop max", "slices/cycle", "grays/cycle", "aborts"},
	}
	for _, name := range e15Workloads {
		w, ok := workloads.TaskByName(name)
		if !ok {
			panic(fmt.Sprintf("E15: no task workload %q", name))
		}
		for _, conc := range []bool{false, true} {
			s := concMarkRun(w, conc, repeats)
			mode := "stw"
			perCycle := func(n int64) string { return "-" }
			if conc {
				mode = "concurrent"
				perCycle = func(n int64) string {
					if s.cycles == 0 {
						return "-"
					}
					return fmt.Sprint(n / s.cycles)
				}
			}
			maxStop := int64(0)
			if len(s.stops) > 0 {
				maxStop = s.stops[len(s.stops)-1]
			}
			row := []string{
				w.Name, mode,
				time.Duration(s.wallNS).String(),
				fmt.Sprint(s.gcs),
				fmt.Sprint(s.cycles),
				fmt.Sprint(stats.Percentile(s.stops, 0.50)),
				fmt.Sprint(stats.Percentile(s.stops, 0.99)),
				fmt.Sprint(maxStop),
				perCycle(s.slices),
				perCycle(s.grays),
				fmt.Sprint(s.aborts),
			}
			if !conc {
				row[10] = "-"
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"stop events are individual mutator stops in ns: every stop-the-world pause, and each concurrent cycle's initial and final pause separately",
		fmt.Sprintf("concurrent rows trigger a cycle at %d%% heap occupancy (hysteresis: an eighth of the heap must be newly occupied since the last collection) and mark %d words per slice", e15TriggerPct, e15MarkBudget),
		"gcs counts all collections; cycles the ones finished incrementally — the difference is stop-the-world collections the trigger, the recovery ladder or a watchdog abort forced",
		"aborts counts watchdog/fallback aborts (gray queue over budget, non-ground store, or a stop-the-world collection taking over mid-cycle)",
		"regenerate with `tfbench e15`",
	)
	return t
}

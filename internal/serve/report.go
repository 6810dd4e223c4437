package serve

import (
	"fmt"
	"strings"
	"time"

	"tagfree/internal/stats"
)

// SnapshotSchema identifies the emitted JSON layout: a serve run's and the
// scenario matrix's snapshots, one schema for both.
const SnapshotSchema = "tagfree-bench/v1"

// Report condenses a Result into the numbers the tables and snapshots
// carry. Latency percentiles are in virtual-time steps: on a single-core
// container wall-clock tails measure the host scheduler, while step
// latencies are deterministic and comparable across runs (EXPERIMENTS.md,
// E14).
type Report struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"` // "serve"
	Workload string `json:"workload"`
	Strategy string `json:"strategy"`
	// Discipline is "copying" or "mark/sweep".
	Discipline string `json:"discipline"`

	// The resolved arrival/admission configuration.
	Period      int64 `json:"period,omitempty"`
	Burst       int   `json:"burst,omitempty"`
	QueueDepth  int   `json:"queue_depth,omitempty"`
	MaxInflight int   `json:"max_inflight,omitempty"`
	ShedHeapPct int   `json:"shed_heap_pct,omitempty"`
	Deadline    int64 `json:"deadline,omitempty"`
	BudgetSteps int64 `json:"budget_steps,omitempty"`
	BudgetAlloc int64 `json:"budget_alloc_words,omitempty"`

	Stats Stats `json:"stats"`

	// Steps is the virtual run length; ThroughputRPMS the completed
	// requests per million steps; WallNS the wall-clock run time.
	Steps          int64   `json:"steps"`
	WallNS         int64   `json:"wall_ns"`
	ThroughputRPMS float64 `json:"throughput_rpmsteps"` // completed per 1e6 steps

	// Latency percentiles over completed requests, in steps.
	LatencyP50  int64 `json:"latency_p50_steps"`
	LatencyP99  int64 `json:"latency_p99_steps"`
	LatencyP999 int64 `json:"latency_p999_steps"`
	LatencyMax  int64 `json:"latency_max_steps"`

	// Collector-side counters for the degradation ladder.
	Collections  int64 `json:"gc_count,omitempty"`
	BudgetFaults int64 `json:"budget_faults,omitempty"`
	LadderRecov  int64 `json:"ladder_recovered,omitempty"`
	LadderExh    int64 `json:"ladder_exhausted,omitempty"`
}

// Snapshot is the whole emitted file (tagfree-bench/v1 with "serve" runs).
type Snapshot struct {
	Schema string   `json:"schema"`
	Runs   []Report `json:"runs"`
}

// NewReport folds a finished run into its report row.
func NewReport(name string, cfg Config, res *Result) Report {
	discipline := "copying"
	if cfg.Opts.MarkSweep {
		discipline = "mark/sweep"
	}
	r := Report{
		Name:        name,
		Kind:        "serve",
		Workload:    cfg.Workload.Name,
		Strategy:    cfg.Opts.Strategy.String(),
		Discipline:  discipline,
		Period:      cfg.Period,
		Burst:       cfg.Burst,
		QueueDepth:  cfg.QueueDepth,
		MaxInflight: cfg.MaxInflight,
		ShedHeapPct: cfg.ShedHeapPct,
		Deadline:    cfg.Deadline,
		BudgetSteps: cfg.Opts.BudgetSteps,
		BudgetAlloc: cfg.Opts.BudgetAllocWords,
		Stats:       res.Stats,
		Steps:       res.Steps,
		WallNS:      res.WallNS,
		LatencyP50:  stats.Percentile(res.Latencies, 0.50),
		LatencyP99:  stats.Percentile(res.Latencies, 0.99),
		LatencyP999: stats.Percentile(res.Latencies, 0.999),
		LatencyMax:  stats.Percentile(res.Latencies, 1),
	}
	if res.Steps > 0 {
		r.ThroughputRPMS = float64(res.Stats.Completed) * 1e6 / float64(res.Steps)
	}
	if res.Group != nil {
		r.Collections = res.Group.Col.Stats.Collections
		rs := res.Group.Col.Telem.Resilience
		r.BudgetFaults = rs.BudgetFaults
		r.LadderRecov = rs.LadderRecovered
		r.LadderExh = rs.LadderExhausted
	}
	return r
}

// Table renders one report as the aligned text block tfserve prints.
func (r Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serve: workload=%s strategy=%s discipline=%s\n",
		r.Workload, r.Strategy, r.Discipline)
	if r.Period > 0 {
		fmt.Fprintf(&b, "arrivals: period=%d burst=%d queue=%d inflight=%d shed-heap%%=%d deadline=%d\n",
			r.Period, r.Burst, r.QueueDepth, r.MaxInflight, r.ShedHeapPct, r.Deadline)
	} else {
		fmt.Fprintf(&b, "arrivals: closed-loop (corpus order, no admission control)\n")
	}
	s := r.Stats
	fmt.Fprintf(&b, "requests: issued=%d completed=%d shed=%d retries=%d dropped=%d canceled=%d faulted=%d wrong=%d\n",
		s.Requests, s.Completed, s.Shed, s.Retries, s.Dropped, s.Canceled, s.Faulted, s.WrongResults)
	fmt.Fprintf(&b, "ladder: shed-heap=%d forced-majors=%d budget-faults=%d ladder-recovered=%d ladder-exhausted=%d\n",
		s.ShedHeap, s.ForcedMajors, r.BudgetFaults, r.LadderRecov, r.LadderExh)
	fmt.Fprintf(&b, "latency(steps): p50=%d p99=%d p999=%d max=%d\n",
		r.LatencyP50, r.LatencyP99, r.LatencyP999, r.LatencyMax)
	fmt.Fprintf(&b, "throughput: %.1f req/Msteps over %d steps (wall %s, gcs=%d)\n",
		r.ThroughputRPMS, r.Steps, time.Duration(r.WallNS), r.Collections)
	return b.String()
}

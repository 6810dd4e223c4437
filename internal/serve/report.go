package serve

import (
	"fmt"
	"strings"
	"time"

	"tagfree/internal/stats"
)

// Report condenses a Result into the numbers its table prints. Latency
// percentiles are in virtual-time steps: on a single-core container
// wall-clock tails measure the host scheduler, while step latencies are
// deterministic and comparable across runs (EXPERIMENTS.md, E14).
type Report struct {
	Workload string
	Strategy string
	// Discipline is "copying" or "mark/sweep".
	Discipline string

	// The resolved arrival/admission configuration.
	Period      int64
	Burst       int
	QueueDepth  int
	MaxInflight int
	ShedHeapPct int
	Deadline    int64

	Stats Stats

	// Steps is the virtual run length; ThroughputRPMS the completed
	// requests per million steps; WallNS the wall-clock run time.
	Steps          int64
	WallNS         int64
	ThroughputRPMS float64 // completed per 1e6 steps

	// Latency percentiles over completed requests, in steps.
	LatencyP50  int64
	LatencyP99  int64
	LatencyP999 int64
	LatencyMax  int64

	// Collector-side counters for the degradation ladder.
	Collections  int64
	BudgetFaults int64
	LadderRecov  int64
	LadderExh    int64
}

// NewReport folds a finished run into its report row.
func NewReport(cfg Config, res *Result) Report {
	discipline := "copying"
	if cfg.Opts.MarkSweep {
		discipline = "mark/sweep"
	}
	r := Report{
		Workload:    cfg.Workload.Name,
		Strategy:    cfg.Opts.Strategy.String(),
		Discipline:  discipline,
		Period:      cfg.Period,
		Burst:       cfg.Burst,
		QueueDepth:  cfg.QueueDepth,
		MaxInflight: cfg.MaxInflight,
		ShedHeapPct: cfg.ShedHeapPct,
		Deadline:    cfg.Deadline,
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

// Table renders one report as the aligned text block tfgc serve prints.
func (r Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serve: workload=%s strategy=%s discipline=%s\n",
		r.Workload, r.Strategy, r.Discipline)
	fmt.Fprintf(&b, "arrivals: period=%d burst=%d queue=%d inflight=%d shed-heap%%=%d deadline=%d\n",
		r.Period, r.Burst, r.QueueDepth, r.MaxInflight, r.ShedHeapPct, r.Deadline)
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

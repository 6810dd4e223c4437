package main

// One measurement of one workload: set up (several times), warm up, repeat
// the timed section with tracing off for the end-to-end metrics; or, with
// tracing on, make the separate traced pass that the per-layer metrics come
// from.

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// config sizes one measurement.
type config struct {
	seconds  float64 // how long the timed repeats measure
	scale    float64 // workload size; 1 is the benchmark, tests use a sliver
	minReps  int     // timed repeats to make even when seconds is used up
	setups   int     // set-ups to make (the last one is kept and run)
	trace    bool
	traceOut string // Chrome trace-event file to write after a traced pass
}

// warmScale is the warm-up's size relative to the run: the same program
// shape and seed with fewer iterations, value-checked like a timed run.
const warmScale = 1.0 / 4

// result is one measurement's outcome.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Sizes stamps how much work the numbers stand for.
	Sizes map[string]int64 `json:"sizes"`
	// Wrong lists every value mismatch or fault.
	Wrong []string `json:"wrong,omitempty"`
}

func (r *result) tally(s *sample) {
	r.Attempted += s.attempted
	r.Failed += s.failed
	r.Wrong = append(r.Wrong, s.wrong...)
}

// setUp generates and builds the workload's input and warms up on a small
// sibling of it. It is the whole of setup_s.
func setUp(w workload, seed int64, cfg config, tr *tracer, res *result) (*instance, error) {
	in, err := newInstance(w, seed, cfg.scale, w.opts, tr)
	if err != nil {
		return nil, err
	}
	warm, err := newInstance(w, seed, cfg.scale*warmScale, w.opts, nil)
	if err != nil {
		return nil, err
	}
	s, err := warm.run(nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res.tally(s)
	return in, nil
}

// repeat runs the timed section until the next repeat would overrun the
// budget, and at least minReps times.
func repeat(in *instance, seconds float64, minReps int, res *result) ([]*sample, error) {
	var samples []*sample
	var spent time.Duration
	for {
		runtime.GC() // start every repeat from a collected host heap
		s, err := in.run(nil)
		if err != nil {
			return nil, err
		}
		res.tally(s)
		samples = append(samples, s)
		spent += s.wall
		if len(samples) >= minReps && (spent+s.wall).Seconds() > seconds {
			return samples, nil
		}
	}
}

func walls(samples []*sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.wall.Seconds()
	}
	return out
}

// measure runs one workload once, end to end or traced.
func measure(w workload, seed int64, cfg config) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Trace: cfg.trace, Sizes: map[string]int64{}}
	var err error
	if cfg.trace {
		err = measureTraced(w, seed, cfg, res)
	} else {
		err = measureEndToEnd(w, seed, cfg, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = len(res.Wrong) == 0
	return res, nil
}

func measureEndToEnd(w workload, seed int64, cfg config, res *result) error {
	var in *instance
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		var err error
		if in, err = setUp(w, seed, cfg, nil, res); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	samples, err := repeat(in, cfg.seconds, cfg.minReps, res)
	if err != nil {
		return err
	}
	cpus := make([]float64, len(samples))
	for i, s := range samples {
		cpus[i] = s.cpu.Seconds()
	}
	m := newMetricSet(endToEnd)
	m.set("setup_s", median(setups))
	m.set("run_s", slices.Min(walls(samples)))
	m.set("cpu_s", slices.Min(cpus))
	m.set("peak_rss_mb", peakRSSMB())
	res.Metrics = m.export()
	res.stampSizes(in, samples[len(samples)-1], len(samples))
	return nil
}

// stampSizes records how much work one timed section did.
func (r *result) stampSizes(in *instance, s *sample, reps int) {
	r.Sizes["reps"] = int64(reps)
	r.Sizes["source_bytes"] = int64(len(in.p.source))
	r.Sizes["instructions"] = s.vm.Instructions + s.task.Instructions
	r.Sizes["collections"] = int64(len(s.pauses))
	if in.w.kind == kindServe {
		r.Sizes["requests"] = s.serve.Requests
	}
}

package main

// Span tracing from the outside: the benchmark wraps its calls into each
// layer's public functions in spans, keeps them in memory and writes them
// at exit as Chrome trace-event JSON (load in Perfetto or chrome://tracing).
// Spans inside the program are ROADMAP direction 5, a later issue.

import (
	"encoding/json"
	"os"
	"time"
)

// Layer names: this repository's modules, as the README tabulates them.
const (
	layerBench   = "bench" // the benchmark's own work (generation)
	layerMlang   = "mlang"
	layerCompile = "compile"
	layerVM      = "vm"
	layerTasking = "tasking"
	layerHeap    = "heap"
	layerGC      = "gc"
	layerServe   = "serve"
)

type span struct {
	layer, name string
	start, end  time.Duration // since tracer.t0
	parent      int           // index into tracer.spans, -1 for a root
}

// tracer records spans for one workload. A nil *tracer is tracing off:
// span just runs f, so timed sections share one code path with and without
// tracing and the difference between the two is the tracing overhead.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// span runs f inside a span and returns f's wall time.
func (t *tracer) span(layer, name string, f func()) time.Duration {
	if t == nil {
		start := time.Now()
		f()
		return time.Since(start)
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{layer: layer, name: name, parent: parent})
	t.open = append(t.open, id)
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
	t.spans[id].start, t.spans[id].end = start, end
	return end - start
}

// traceEvent is one Chrome trace-event "complete" (ph X) record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// write emits the spans as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	out := traceFile{DisplayTimeUnit: "ms", TraceEvents: []traceEvent{}}
	for i, s := range t.spans {
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: s.layer + "." + s.name,
			Cat:  s.layer,
			Ph:   "X",
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID:  1,
			TID:  1,
			Args: map[string]any{"id": i, "parent": s.parent, "workload": t.workload},
		})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

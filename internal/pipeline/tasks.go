package pipeline

import (
	"fmt"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/heap"
	"tagfree/internal/tasking"
)

// TaskResult is the outcome of a multi-task run.
type TaskResult struct {
	// Values holds each task's decoded integer result, in entry order.
	// A faulted task's value is 0; consult Faults to distinguish.
	Values []int64
	// Outputs holds each task's printed output.
	Outputs []string
	// Faults is aligned with Values: nil for a task that completed, the
	// captured fault for one isolated by the recovery ladder or a runtime
	// error. Siblings of a faulted task run to completion.
	Faults  []*tasking.TaskFault
	Stats   tasking.Stats
	GCStats gc.Stats
	Heap    heap.Stats
	// TLABs is aligned with Values: each task's allocation-buffer
	// accounting (all zero when Options.TLABWords is 0).
	TLABs []tasking.TLABStats
	// Telemetry is the collector's per-collection record stream.
	Telemetry *gc.Telemetry
	// Group exposes the finished group for post-run inspection — the
	// differential suite takes live-heap signatures and active-space
	// snapshots through it.
	Group *tasking.Group
}

// BuildTaskGroup compiles src for the tasking runtime (gc_word elision
// disabled: under the default policy any call can become a suspension
// point), validates each named entry as a top-level function of type
// unit -> int, and assembles a task group with every option knob wired but
// no tasks spawned. It returns the group and the compiled function indices
// aligned with entryNames; callers spawn tasks themselves (all up front for
// a closed corpus run, or on demand from a Tick hook for open-loop serving)
// and then drive RunInit/Run.
func BuildTaskGroup(src string, entryNames []string, opts Options) (*tasking.Group, []int, error) {
	irp, info, err := Frontend(src)
	if err != nil {
		return nil, nil, err
	}
	for _, name := range entryNames {
		sch, ok := info.TopScheme[name]
		if !ok {
			return nil, nil, fmt.Errorf("tasking: no top-level binding %s", name)
		}
		if s := sch.String(); s != "unit -> int" {
			return nil, nil, fmt.Errorf("tasking: entry %s has type %s, need unit -> int", name, s)
		}
	}
	opts.DisableGCWordElision = true
	prog, _, err := compileIR(irp, opts)
	if err != nil {
		return nil, nil, err
	}
	entries := make([]int, len(entryNames))
	for i, name := range entryNames {
		entries[i] = prog.FuncByName(name)
		if entries[i] < 0 {
			return nil, nil, fmt.Errorf("tasking: function %s not found after compilation", name)
		}
	}
	group, err := newGroup(prog, opts, false)
	if err != nil {
		return nil, nil, err
	}
	return group, entries, nil
}

// RunTasks compiles src for the tasking runtime and runs the named entry
// functions as concurrent tasks over a shared heap. Every entry must be a
// top-level function of type unit -> int.
func RunTasks(src string, entryNames []string, opts Options) (*TaskResult, error) {
	group, entries, err := BuildTaskGroup(src, entryNames, opts)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		group.Spawn(e)
	}
	if err := group.RunInit(); err != nil {
		return nil, err
	}
	if err := group.Run(); err != nil {
		return nil, err
	}

	prog := group.Prog
	res := &TaskResult{
		Stats:     group.Stats,
		GCStats:   group.Col.Stats,
		Heap:      group.Heap.Stats,
		Telemetry: &group.Col.Telem,
		Group:     group,
	}
	for _, t := range group.Tasks {
		if t.Status == tasking.Faulted {
			res.Values = append(res.Values, 0)
		} else {
			res.Values = append(res.Values, code.DecodeInt(prog.Repr, t.Result))
		}
		res.Outputs = append(res.Outputs, t.Out.String())
		res.Faults = append(res.Faults, t.Fault)
		res.TLABs = append(res.TLABs, t.TLAB)
	}
	return res, nil
}

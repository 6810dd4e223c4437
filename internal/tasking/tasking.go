// Package tasking is the repository's only interpreter and the paper's §4
// extension: tasks in a shared-memory environment, stopped together for
// tag-free collection. A single-task program runs as a group of one
// (Group.RunMain). The package lies along four seams (DESIGN.md §17):
//
//   - dispatch.go, the loop. Group.step keeps what one instruction hands the
//     next — code, stack, pc, fp, sp, the instructions left — in locals and
//     makes no call; whatever needs one (an allocation window, a load or store
//     hook, a diverted call, frame growth, a fault) leaves the loop as an event
//     and re-enters it. Objects are built in the loop, in a window of the heap.
//   - sched.go, the scheduler and its suspend waves: §4, readable on its own.
//     Deterministic round-robin with a fixed instruction quantum, so runs are
//     reproducible; a raised Rgc stops every task at its next safe point, and
//     when all have stopped their stacks are traced and they resume.
//   - gate.go, the allocation gate (the safe point of an allocation: a window,
//     a park, or a raised wave) and the recovery ladder behind a failure.
//   - tlab.go and shard.go, one optional mode each. Each opens with the list
//     of lines of the other files that call into it.
//
// This file declares what they share: Task and its Status, faults and
// backtraces, Stats, Group, and the run queue. Nothing is kept per frame for
// diagnostics: a backtrace names each frame from its return address, the way
// the collector finds its gc_word.
//
// The paper describes two suspension disciplines (§4): checking Rgc only
// inside allocation routines (cheap checks, potentially long waits), or at
// every procedure call via the call-target offset (the default here). Both
// are implemented (Policy); experiment E7 compares their suspension latencies.
// Under SuspendAtCalls a program must be compiled with gc_word elision
// disabled: any call can become a suspension point, so every call site needs
// its frame map. Under SuspendAtAllocs a task stops only inside an allocation,
// every frame below it is at a call that reached that allocation, and §5.1's
// elision — which drops a gc_word only from a call that can reach no
// allocation — stays sound.
package tasking

import (
	"bytes"
	"fmt"
	"strings"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/heap"
)

// Status is a task's scheduler state.
type Status int

// Task states.
const (
	Running Status = iota
	SuspendedAlloc
	SuspendedCall
	Done
	// Faulted marks a task stopped by its own failure — a runtime error or
	// an allocation the recovery ladder could not satisfy — with the cause
	// captured in Task.Fault. Faulting is per-task: siblings keep running.
	Faulted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Running:
		return "running"
	case SuspendedAlloc:
		return "suspended-alloc"
	case SuspendedCall:
		return "suspended-call"
	case Done:
		return "done"
	case Faulted:
		return "faulted"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Task is one thread of control.
type Task struct {
	ID     int
	Status Status
	Result code.Word
	Err    error
	// Fault holds the structured failure record when Status is Faulted.
	Fault *TaskFault
	Out   bytes.Buffer

	stack []code.Word
	sp    int
	fp    int
	pc    int
	// depth is the number of frames on the stack. Nothing records which
	// functions they belong to: diagnostics recover a frame's function from
	// its return address, as the collectors do (Figure 1).
	depth int
	// shard is the task's heap shard (Group.shardOf), 0 when unsharded.
	shard int
	// pendingAlloc is the retry size while suspended at an allocation.
	pendingAlloc int
	// parked holds the dispatch loop's instruction count while it lays an
	// object (step); it means nothing between instructions.
	parked int
	// allocRetry marks a task resuming a suspended allocation: torture and
	// fault injection skip the retry, or an injected failure would suspend
	// the same allocation forever.
	allocRetry bool
	// allocEmergency marks a suspension caused by a failed (or injected-
	// failed) allocation rather than a sibling's Rgc or torture: the task is
	// climbing the recovery ladder, and the climb's outcome is counted as
	// LadderRecovered or LadderExhausted when it resolves.
	allocEmergency bool

	// Steps counts instructions this task has executed; AllocWords counts
	// the object field words it has requested. Both are the budget meters
	// (Group.BudgetSteps / BudgetAllocWords) and feed the serve harness's
	// per-request accounting. An allocation that suspends is one step, and
	// one more when it is retried.
	Steps      int64
	AllocWords int64
	// Mutator work counters (pipeline.Result.VMStats sums them): direct and
	// closure calls, objects allocated, frame words zero-filled at entry
	// (Group.ZeroFill), and the high-water marks of the stack.
	Calls           int64
	ClosCalls       int64
	Allocations     int64
	ZeroFilledWords int64
	MaxStackWords   int
	MaxFrameDepth   int

	// tlab is this task's private allocation buffer (Group.TLABWords > 0);
	// TLAB accumulates its lifetime accounting.
	tlab heap.TLAB
	TLAB TLABStats
}

// FaultKind classifies a task fault.
type FaultKind int

// Fault kinds.
const (
	// FaultRuntime is a VM/runtime error (division by zero, match
	// failure, illegal opcode, ...).
	FaultRuntime FaultKind = iota
	// FaultOOM is an allocation that failed after the whole recovery
	// ladder: emergency collection, retry, and (when enabled) heap growth.
	FaultOOM
	// FaultBudget (BudgetExceeded) is a task terminated for exceeding a
	// per-task budget: the step/deadline limit, the allocation-word quota,
	// or an overload-ladder cancellation. Enforced only at the interpreter's
	// existing suspension points (call dispatch and allocation), so an
	// unbudgeted run's execution is untouched instruction for instruction.
	FaultBudget
)

// String names the fault kind ("BudgetExceeded" matches the serve
// harness's telemetry vocabulary).
func (k FaultKind) String() string {
	switch k {
	case FaultRuntime:
		return "RuntimeError"
	case FaultOOM:
		return "OutOfMemory"
	case FaultBudget:
		return "BudgetExceeded"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Frame is one activation record in a captured backtrace.
type Frame struct {
	// FP is the frame's base index in the task stack; PC the instruction
	// the frame is at (the faulting instruction for the innermost frame,
	// the pending call for each caller).
	FP, PC int
	Func   string
}

// TaskFault is the structured record of one task's failure: what happened
// (Kind, Cause), where (Func, PC, the frame chain) and — for allocation
// faults — how much was being requested.
type TaskFault struct {
	Task int
	Kind FaultKind
	PC   int
	Func string
	// AllocSize is the pending allocation's field count (FaultOOM only).
	AllocSize int
	Frames    []Frame
	Cause     error
}

// Error implements the error interface.
func (f *TaskFault) Error() string {
	switch f.Kind {
	case FaultRuntime:
		// Runtime-error causes come from errf, which already carries the
		// task/function/pc context and the backtrace.
		return f.Cause.Error()
	case FaultBudget:
		return fmt.Sprintf("task %d exceeded its budget in %s at pc %d: %v%s",
			f.Task, f.Func, f.PC, f.Cause, backtraceString(f.Frames))
	}
	return fmt.Sprintf("task %d faulted in %s at pc %d: allocation of %d fields failed after the recovery ladder: %v%s",
		f.Task, f.Func, f.PC, f.AllocSize, f.Cause, backtraceString(f.Frames))
}

// Unwrap exposes the underlying cause (e.g. *heap.OutOfMemoryError).
func (f *TaskFault) Unwrap() error { return f.Cause }

// backtraceString renders a frame chain innermost-first for error text.
// Deep recursions fault with thousands of live frames; only the innermost
// few identify the failure, so display is capped.
func backtraceString(frames []Frame) string {
	if len(frames) == 0 {
		return ""
	}
	const maxShown = 12
	var b strings.Builder
	b.WriteString("; backtrace:")
	for i, fr := range frames {
		if i == maxShown {
			fmt.Fprintf(&b, " <- ... (%d more)", len(frames)-i)
			break
		}
		if i > 0 {
			b.WriteString(" <-")
		}
		fmt.Fprintf(&b, " %s@pc%d(fp=%d)", fr.Func, fr.PC, fr.FP)
	}
	return b.String()
}

// Stats aggregates group-level measurements (experiment E7).
type Stats struct {
	Collections int64
	// RgcChecks counts call-dispatch Rgc comparisons (the per-call cost
	// the paper argues is nearly free).
	RgcChecks int64
	// SuspendLatency records, per collection, the number of instructions
	// executed by all tasks between Rgc being raised and the last task
	// suspending.
	SuspendLatency []int64
	Instructions   int64
	// ShardMinors counts single-shard minor collections (Shards > 1);
	// ShardMinorOverlapTasks sums, over those, the other-shard tasks that
	// were still runnable when the shard collected — the concurrency a
	// sharded heap buys over a stop-the-world minor, which would have
	// parked every one of them (the benchmark's tasking.shard_overlap_tasks).
	ShardMinors            int64
	ShardMinorOverlapTasks int64
	// ShardExposures counts exposure events: a shard's young pointer
	// observed escaping to the globals or another shard, blocking that
	// shard's minors until a global collection empties the nurseries.
	ShardExposures int64
}

// Policy selects the paper's suspension discipline (§4).
type Policy int

// Suspension policies.
const (
	// SuspendAtCalls adds Rgc to every call target: a raised Rgc diverts
	// the next call into the suspension stub (the paper's second option).
	SuspendAtCalls Policy = iota
	// SuspendAtAllocs checks Rgc only inside allocation routines (the
	// paper's first option: fewer checks, potentially longer waits).
	SuspendAtAllocs
)

// Group is a set of tasks over one shared heap.
type Group struct {
	Prog *code.Program
	Heap *heap.Heap
	Col  *gc.Collector
	// Globals is the global roots: the prefix of statics the collectors are
	// handed.
	Globals []code.Word
	// Tasks is the registry of every task ever spawned, indexed by ID:
	// results, faults and per-task accounting are read from it after the
	// run. The scheduler never ranges over it — it walks runq.
	Tasks []*Task
	Stats Stats

	// statics is what a negative operand indexes (code.EncodeAtom): the
	// global cells, then the program's constants.
	statics []code.Word
	rgc     code.Word
	latency int64
	steps   int64
	// gates counts the allocations the dispatch loop left to the gate.
	gates int64
	// Policy is the suspension discipline (default SuspendAtCalls).
	Policy Policy
	// Quantum is the instruction slice per scheduling turn.
	Quantum int
	// MaxSteps bounds total execution.
	MaxSteps int64
	// GrowFactor, when > 1, enables the recovery ladder's growth rung:
	// after a collection that did not satisfy a pending allocation, the
	// heap is grown by this factor (per semispace) until the allocation
	// fits or MaxHeapWords is reached.
	GrowFactor float64
	// MaxHeapWords is the growth rung's hard ceiling in words per
	// semispace (0 = unbounded).
	MaxHeapWords int
	// TLABWords, when > 0, gives every task a private allocation buffer
	// refilled in chunks of this many words (-tlab N). The buffers are
	// armed lazily on the first scheduling call and retired en masse before
	// every collection via the collector's PreCollect hook.
	TLABWords int
	// BudgetSteps, when > 0, is the per-task instruction deadline: a task
	// that has executed more than this many instructions is terminated with
	// a BudgetExceeded fault at its next suspension point (call dispatch or
	// allocation). BudgetAllocWords is the per-task allocation-word quota,
	// checked before every allocation. Both leave siblings — and, with
	// budgets off, the whole run — untouched.
	BudgetSteps      int64
	BudgetAllocWords int64
	// Tick, when set, is called at the top of every scheduling round with
	// the group's virtual time (cumulative quantum steps). It may Spawn new
	// tasks and CancelTask existing ones (no collection is in progress at
	// tick time). Returning true keeps the scheduler alive even when every
	// current task is finished: virtual time advances by one quantum per
	// idle round so externally scheduled work (the serve harness's open-loop
	// arrivals) still has a clock.
	Tick func(now int64) bool

	// Shards, when > 1, partitions the tasks into that many heap shards, each
	// with its own young area and TLAB pool (heap.EnableNurseryShards — the
	// pipeline arms the heap to match): a full nursery stops and collects its
	// own shard only, while every other shard's tasks keep running their
	// quanta (shard.go; Stats.ShardMinorOverlapTasks counts the overlap). A
	// task's shard is its ID mod Shards (ShardAssign overrides). Requires a
	// tag-free strategy with a nursery.
	Shards int
	// ShardAssign, when non-nil, overrides the task→shard map by task ID
	// (entries are reduced mod Shards; missing/negative IDs fall back to
	// ID mod Shards). The interleaving fuzz permutes it.
	ShardAssign []int

	// ZeroFill zeroes every frame's slots at entry. The Appel and tagged
	// collectors trace (or scan) all slots, and frame maps widened by the E3
	// ablation name uninitialized ones, so none may hold a stale word; the
	// compiled and interpreted strategies' liveness-filtered maps never
	// mention an uninitialized slot — the paper's critique of per-procedure
	// descriptors (§1.1.1). NewGroupWith sets it from the strategy.
	ZeroFill bool

	// forceMajor requests that the next stop-the-world collection escalate
	// to a major (the overload ladder's second rung); set via
	// RequestMajor, consumed by collectSuspended.
	forceMajor bool
	// initTask is the task RunInit ran the program's init function on
	// (ID -1), kept after it finishes for its output and accounting
	// (InitTask). It is never on the run queue; while it runs, the
	// pre-collection retirement wave covers its buffer too.
	initTask *Task

	// The shard driver's own state (shard.go).
	shardState

	// runq is the scheduler's run queue: the unfinished tasks in spawn
	// order, plus any that finished since the last compaction (every scan
	// still judges a task by its Status). compactRunQueue drops the finished
	// ones once per round, so a round costs the live tasks, not every task
	// the group ever ran.
	runq []*Task
	// stackPool holds the zeroed stacks of tasks that left the run queue,
	// for Spawn to hand out again (LIFO).
	stackPool [][]code.Word
}

// NewGroup builds a tasking group over a fresh semispace copying heap.
// Entries are function indexes of the task bodies (each of type
// unit -> int); the program's init function runs first on task 0's stack
// to populate globals.
func NewGroup(prog *code.Program, semiWords int, strat gc.Strategy, entries []int) (*Group, error) {
	return NewGroupWith(prog, heap.New(prog.Repr, semiWords), strat, entries)
}

// NewGroupWith builds a tasking group over a caller-constructed heap
// (e.g. a mark/sweep heap from heap.NewMarkSweep).
func NewGroupWith(prog *code.Program, h *heap.Heap, strat gc.Strategy, entries []int) (*Group, error) {
	col, err := gc.New(prog, h, strat)
	if err != nil {
		return nil, err
	}
	nG := len(prog.Globals)
	statics := append(make([]code.Word, nG, nG+len(prog.Consts)), prog.Consts...)
	g := &Group{
		Prog:     prog,
		Heap:     h,
		Col:      col,
		Globals:  statics[:nG:nG],
		statics:  statics,
		Quantum:  97,
		MaxSteps: 1 << 40,
		ZeroFill: strat == gc.StratAppel || strat == gc.StratTagged,
	}
	for _, e := range entries {
		g.Spawn(e)
	}
	return g, nil
}

// Spawn adds a task running function index entry (of type unit -> int) to
// the group. Tasks may be spawned before the run starts or dynamically
// from a Tick hook — never during a collection, which Tick guarantees by
// construction. The new task is scheduled at the end of the round-robin
// order, so spawning every entry up front is execution-identical to
// constructing the group with those entries.
func (g *Group) Spawn(entry int) *Task {
	t := g.newTask(len(g.Tasks))
	g.enter(t, entry)
	t.stack[t.fp+2] = code.EncodeInt(g.Prog.Repr, 0) // the unit argument
	g.Tasks = append(g.Tasks, t)
	g.runq = append(g.runq, t)
	return t
}

// newTask returns a task with an empty, all-zero stack: a recycled one when
// the pool has any, otherwise a fresh 1024-word allocation. A recycled stack
// may be longer than 1024 words (its previous task grew it); it only saves
// the new task the growth.
func (g *Group) newTask(id int) *Task {
	t := &Task{ID: id, fp: -1}
	t.shard = g.shardOf(t)
	if n := len(g.stackPool); n > 0 {
		t.stack = g.stackPool[n-1]
		g.stackPool = g.stackPool[:n-1]
	} else {
		t.stack = make([]code.Word, 1024)
	}
	return t
}

// releaseStack returns a finished task's stack to the pool, zeroed, so the
// next task cannot tell it from a fresh one (the compiled strategy does not
// zero a new frame's slots). The whole stack is cleared, not the part the
// task reached: MaxStackWords stops at the last frame pushed, and a faulted
// task may have written above it. The task keeps its result, fault (the
// backtrace was captured when it faulted) and accounting.
func (g *Group) releaseStack(t *Task) {
	clear(t.stack)
	g.stackPool = append(g.stackPool, t.stack)
	t.stack = nil
}

// compactRunQueue drops finished tasks from the run queue, keeping the rest
// in spawn order, and recycles their stacks.
func (g *Group) compactRunQueue() {
	live := g.runq[:0]
	for _, t := range g.runq {
		if t.Status == Done || t.Status == Faulted {
			g.releaseStack(t)
			continue
		}
		live = append(live, t)
	}
	g.runq = live
}

// CancelTask terminates a live task with a BudgetExceeded fault carrying
// the given cause — the overload ladder's last per-task rung before any
// global failure. Safe from a Tick hook (the task is not mid-step); a
// task that already finished or faulted is left untouched.
func (g *Group) CancelTask(t *Task, cause error) bool {
	if t.Status == Done || t.Status == Faulted {
		return false
	}
	g.faultTask(t, FaultBudget, 0, cause)
	return true
}

// faultTask transitions one task to Faulted with a captured TaskFault.
func (g *Group) faultTask(t *Task, kind FaultKind, allocSize int, cause error) {
	f := &TaskFault{
		Task:      t.ID,
		Kind:      kind,
		PC:        t.pc,
		Func:      g.funcNameAt(t.pc),
		AllocSize: allocSize,
		Frames:    g.backtrace(t),
		Cause:     cause,
	}
	t.Status = Faulted
	t.Fault = f
	t.Err = f
	g.retireTaskTLAB(t)
	g.Col.Telem.Resilience.TaskFaults++
	if kind == FaultBudget {
		g.Col.Telem.Resilience.BudgetFaults++
	}
}

// backtrace captures the task's frame chain, innermost first, bounded so
// a fault deep in a recursion does not snapshot thousands of identical
// frames. Each caller's pc is the call instruction stored as its callee's
// return address, and a frame's function is the one whose code holds its pc.
func (g *Group) backtrace(t *Task) []Frame {
	const maxFrames = 64
	var frames []Frame
	fp, pc := t.fp, t.pc
	for d := t.depth; d > 0 && fp >= 0 && len(frames) < maxFrames; d-- {
		frames = append(frames, Frame{FP: fp, PC: pc, Func: g.funcNameAt(pc)})
		pc = int(t.stack[fp+1])
		fp = int(t.stack[fp])
	}
	return frames
}

// funcNameAt names the function whose code holds pc.
func (g *Group) funcNameAt(pc int) string {
	if i := g.Prog.FuncAt(pc); i >= 0 {
		return g.Prog.Funcs[i].Name
	}
	return "?"
}

func (t *Task) errf(g *Group, format string, args ...any) error {
	return fmt.Errorf("task %d: runtime error in %s at pc %d: %s%s",
		t.ID, g.funcNameAt(t.pc), t.pc, fmt.Sprintf(format, args...), backtraceString(g.backtrace(t)))
}

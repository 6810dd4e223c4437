// Package tasking implements the paper's §4 extension: multiple tasks in a
// shared-memory environment with stop-the-world tag-free collection.
//
// The model follows the paper's Ada-flavoured design:
//
//   - All tasks share one heap and the global roots; each has its own
//     stack of activation records.
//   - A task may be suspended for collection only when it makes a
//     procedure call (or itself requests allocation) — the same safe-point
//     discipline as the sequential collector.
//   - A dedicated register Rgc, normally zero, is conceptually added to
//     every call's target address. When an allocation finds the heap
//     exhausted it sets Rgc nonzero, so every other task's next call lands
//     in a suspension stub. The simulator models the zero-cost check by
//     comparing Rgc at call dispatch and counts the checks.
//   - When every live task is suspended, the collector traces all stacks
//     (tasks suspended at a call contribute the call's argument slots —
//     the values have not yet been copied to a callee frame) and the tasks
//     resume: the triggering task retries its allocation, the others
//     re-execute their calls.
//
// The paper describes two suspension disciplines (§4): checking Rgc only
// inside allocation routines (cheap checks, potentially long waits), or
// checking at every procedure call via the call-target offset (the default
// here). Both are implemented; experiment E7 compares their suspension
// latencies.
//
// Scheduling is deterministic round-robin with a fixed instruction
// quantum, so runs are reproducible. Under SuspendAtCalls a program must be
// compiled with gc_word elision disabled: any call can become a suspension
// point, so every call site needs its frame map. Under SuspendAtAllocs a
// task stops only inside an allocation, every frame below it is at a call
// that reached that allocation, and §5.1's elision — which drops a gc_word
// only from a call that can reach no allocation — stays sound.
//
// This is the repository's only interpreter: a single-task program runs as
// a group of one (Group.RunMain). Its dispatch loop (Group.step, DESIGN.md
// §12) keeps what one instruction hands the next — code, stack, pc, fp, sp,
// the instructions left — in locals and makes no call; whatever needs one
// (an allocation window, a load or store hook, a diverted call, frame growth,
// a fault) leaves the loop as an event and re-enters it. Objects are built in
// the loop, in a window of the heap the allocation gate opened (§15). Nothing is kept per frame for
// diagnostics: a backtrace names each frame from its return address, the way
// the collector finds its gc_word.
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
	// parkedByRgc says why the task is SuspendedAlloc: true when it found a
	// wave already raised and has not asked for memory yet, false when its
	// own allocation failed, was failed by injection, or is being tortured —
	// the cases that need a collection now. Written by every suspension.
	parkedByRgc bool
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

// TLABStats is one task's allocation-buffer accounting over its lifetime.
// FastAllocs served from the private buffer without touching the shared
// heap; SlowAllocs went through Heap.Alloc (oversize, or a failed carve
// rescued by a mark/sweep free list); Refills carved RefillWords from the
// shared heap, of which WasteWords died unused and ReturnedWords were
// given back at retirement.
type TLABStats struct {
	FastAllocs    int64
	SlowAllocs    int64
	Refills       int64
	RefillWords   int64
	WasteWords    int64
	ReturnedWords int64
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
	// parked every one of them (experiment E16).
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

	// Shards, when > 1, partitions the tasks into that many heap shards,
	// each with its own nursery pair and TLAB pool
	// (heap.EnableNurseryShards — the pipeline arms the heap to match). A
	// task's shard is its ID mod Shards (ShardAssign overrides). When one
	// shard's nursery fills, only that shard's tasks ride a suspend wave
	// (rgcShard) and only that shard's young generation is collected —
	// every other shard's tasks keep running their quanta, which is the
	// pause overlap experiment E16 measures. Requires a tag-free strategy
	// with a nursery and no concurrent marking.
	Shards int
	// ShardAssign, when non-nil, overrides the task→shard map by task ID
	// (entries are reduced mod Shards; missing/negative IDs fall back to
	// ID mod Shards). The interleaving fuzz permutes it.
	ShardAssign []int

	// GCConcurrent arms mostly-concurrent marking (mark/sweep heaps without
	// a nursery): a cycle starts with a brief root-snapshot pause when heap
	// occupancy crosses ConcTriggerPct, marking then runs in budgeted
	// slices between task quanta, and a bounded final pause re-scans the
	// stacks and sweeps. Both pauses ride the ordinary Rgc suspend wave so
	// every task is at a call/alloc safe point with a valid frame map. See
	// gc/concurrent.go for the marking engine and the abort/fallback rung.
	GCConcurrent bool
	// ConcTriggerPct is the occupancy watermark, in percent of the heap's
	// words, that starts a concurrent cycle (0 = 75).
	ConcTriggerPct int

	// ZeroFill zeroes every frame's slots at entry. The Appel and tagged
	// collectors trace (or scan) all slots, and frame maps widened by the E3
	// ablation name uninitialized ones, so none may hold a stale word; the
	// compiled and interpreted strategies' liveness-filtered maps never
	// mention an uninitialized slot — the paper's critique of per-procedure
	// descriptors (§1.1.1). NewGroupWith sets it from the strategy.
	ZeroFill bool

	// PoisonPruned faults any task whose compiled code loads the
	// liveness-guided collector's PrunedWord sentinel — the debug mode
	// that makes heap-liveness verdicts falsifiable: a verdict that pruned
	// a field the program still reads turns into a deterministic fault
	// instead of a silently wrong value.
	PoisonPruned bool

	// forceMajor requests that the next stop-the-world collection escalate
	// to a tenure-all major (the overload ladder's second rung); set via
	// RequestMajor, consumed by collectSuspended.
	forceMajor bool
	// concPhase tracks the concurrent cycle's scheduler-side state: which
	// suspend waves belong to the cycle's pauses rather than a collection.
	concPhase int
	// concLastEnd is heap occupancy right after the last collection of any
	// kind. The trigger requires real allocation growth beyond it, so a
	// mostly-live heap that stays above the watermark does not re-cycle
	// every round reclaiming nothing.
	concLastEnd int

	// initTask is the task RunInit ran the program's init function on
	// (ID -1), kept after it finishes for its output and accounting
	// (InitTask). It is never on the run queue; while it runs, the
	// pre-collection retirement wave covers its buffer too.
	initTask *Task

	// rgcShard[s] is the per-shard Rgc register: nonzero parks shard-s
	// tasks (at the same safe points as rgc) for a single-shard minor
	// collection. exposed[s] records that a shard-s young pointer may live
	// outside shard s's own world (a global, another shard's stack or
	// young object) — shard-s minors are blocked until a global collection
	// empties every nursery, because a shard minor traces only shard-s
	// stacks, the globals and the shard-filtered remembered set.
	rgcShard []code.Word
	exposed  []bool
	// sharded says per-shard scheduling is live: more than one shard over a
	// generational heap (setupShards).
	sharded bool

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

// Now returns the group's virtual time: the cumulative scheduler steps
// (whole quanta, including idle rounds) since the run began.
func (g *Group) Now() int64 { return g.steps }

// RequestMajor asks the next stop-the-world collection to escalate to a
// tenure-all major after the normal cycle — the serve harness's "force
// major/tenure-all" overload rung. No-op between collections otherwise.
func (g *Group) RequestMajor() { g.forceMajor = true }

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

// setupTLABs lazily arms the heap's TLAB mode and the pre-collection
// retirement hook. Idempotent; called from every scheduling entry point so
// callers may set TLABWords any time between construction and first run.
func (g *Group) setupTLABs() {
	if g.TLABWords > 0 && !g.Heap.TLABsEnabled() {
		g.Heap.EnableTLABs(g.TLABWords)
		g.Col.PreCollect = g.retireAllTLABs
	}
}

// setupShards lazily sizes the per-shard wave and exposure state and places
// the tasks spawned before Shards was set (later ones are placed by newTask).
// Idempotent; called from every scheduling entry point. The heap itself is
// sharded by the caller (heap.EnableNurseryShards) before the run starts.
func (g *Group) setupShards() {
	if g.Shards > 1 && g.rgcShard == nil {
		g.rgcShard = make([]code.Word, g.Shards)
		g.exposed = make([]bool, g.Shards)
		g.sharded = g.Heap.NurseryEnabled()
		for _, t := range g.runq {
			t.shard = g.shardOf(t)
		}
	}
}

// shardOf maps a task to its heap shard: ShardAssign[ID] when set,
// otherwise ID mod Shards. The init task (ID -1) runs in shard 0.
func (g *Group) shardOf(t *Task) int {
	if g.Shards <= 1 || t.ID < 0 {
		return 0
	}
	if t.ID < len(g.ShardAssign) {
		s := g.ShardAssign[t.ID] % g.Shards
		if s < 0 {
			s += g.Shards
		}
		return s
	}
	return t.ID % g.Shards
}

// expose marks a young value as escaped from its shard, blocking that
// shard's minors. Tag-free integers can alias young addresses, so the check
// is conservative — a spurious exposure only costs a blocked shard minor,
// never soundness.
func (g *Group) expose(v code.Word) {
	s := g.Heap.YoungShardOf(v)
	if !g.exposed[s] {
		g.exposed[s] = true
		g.Stats.ShardExposures++
	}
}

// maybeClearExposure lifts the exposure blocks once every nursery is empty
// (after a tenure-all, or any global collection that promoted or reclaimed
// every young object): with no young objects left there is nothing an old
// exposure flag could still protect.
func (g *Group) maybeClearExposure() {
	if g.exposed == nil || g.Heap.YoungUsed() != 0 {
		return
	}
	for i := range g.exposed {
		g.exposed[i] = false
	}
}

// clearShardWaves stands down every pending shard wave (a global
// collection empties all nurseries, so the waves' work is done).
func (g *Group) clearShardWaves() {
	for i := range g.rgcShard {
		g.rgcShard[i] = 0
	}
}

// retireTaskTLAB retires one task's buffer (no-op when inactive), folding
// the waste/give-back words into the task's accounting.
func (g *Group) retireTaskTLAB(t *Task) {
	if !t.tlab.Active() {
		return
	}
	waste, returned := g.Heap.RetireTLAB(&t.tlab)
	t.TLAB.WasteWords += int64(waste)
	t.TLAB.ReturnedWords += int64(returned)
}

// retireAllTLABs retires every live buffer in the group; the collector
// runs it (via PreCollect) before any collection so the heap it scans is
// fully tiled.
func (g *Group) retireAllTLABs() {
	for _, t := range g.runq {
		g.retireTaskTLAB(t)
	}
	if g.initTask != nil {
		g.retireTaskTLAB(g.initTask)
	}
}

// openBuffered opens w, the allocation window a request of n fields is
// granted, in the task's private buffer (TLABs armed): the rest of the buffer
// — no shared-heap acquisition — refilled via one chunked carve when it is
// full. Oversize requests, and carve failures (the region cannot take even
// the clamped chunk), are reported false and fall back to a window on the
// shared heap, whose failure feeds the ordinary recovery ladder. one asks for
// a window of exactly the one object.
func (g *Group) openBuffered(w *heap.Window, t *Task, n int, one bool) bool {
	h := g.Heap
	if !h.TLABEligible(n) {
		return false
	}
	if h.OpenTLABWindow(w, &t.tlab, n, one) {
		return true
	}
	g.retireTaskTLAB(t)
	tl, ok := h.CarveTLAB(n)
	if !ok {
		return false
	}
	t.tlab = tl
	t.TLAB.Refills++
	t.TLAB.RefillWords += int64(tl.Cap())
	if !h.OpenTLABWindow(w, &t.tlab, n, one) {
		panic("tasking: allocation failed inside a fresh TLAB carve")
	}
	return true
}

// settle books the objects the dispatch loop laid in its window since it was
// last left: the heap's counters and bump pointer (heap.Settle), and the
// task's — one Rgc comparison per object where allocation is the policy's
// suspension point, as calls settle theirs when the slice ends.
func (g *Group) settle(t *Task, w *heap.Window) {
	buffered := w.Buffered()
	objs, words := g.Heap.Settle(w)
	t.Allocations += objs
	t.AllocWords += words
	if g.Prog.Repr == code.ReprTagged {
		t.AllocWords -= objs // a header is not a field
	}
	t.allocRetry = false
	if buffered {
		t.TLAB.FastAllocs += objs
	} else if g.TLABWords > 0 {
		t.TLAB.SlowAllocs += objs
	}
	if g.Policy == SuspendAtAllocs {
		g.Stats.RgcChecks += objs
	}
}

// allocBlocked reports whether a pending allocation would still fail if
// retried right now. On a TLAB heap the retry refills through a clamped
// carve (or the mark/sweep free lists), so it must be judged with
// NeedTLAB — Need alone compares a TLAB-satisfiable request against the
// shared bump region and sends the ladder climbing rungs it does not need.
func (g *Group) allocBlocked(n int) bool {
	if g.TLABWords > 0 && g.Heap.TLABsEnabled() {
		return g.Heap.NeedTLAB(n)
	}
	return g.Heap.Need(n)
}

// InitTask returns the task the init function ran on, for its output and
// counters; nil before RunInit.
func (g *Group) InitTask() *Task { return g.initTask }

// RunInit executes the program's init function to completion on a
// dedicated task before the group starts. MaxSteps bounds it as it bounds
// Run: a diverging top-level binding fails with "step limit exceeded".
func (g *Group) RunInit() error {
	g.setupTLABs()
	g.setupShards()
	t := g.newTask(-1)
	g.initTask = t
	defer func() {
		g.retireTaskTLAB(t)
		g.releaseStack(t)
	}()
	g.enter(t, g.Prog.InitFunc)
	for t.Status == Running {
		// Init's instructions count against MaxSteps on the init task's own
		// counter, not the group clock: Now() is still 0 when the first task
		// starts, however much top-level code ran.
		left := g.MaxSteps - t.Steps
		if left <= 0 {
			return t.errf(g, "step limit exceeded (%d)", g.MaxSteps)
		}
		if err := g.step(t, int(min(left, 1_000_000))); err != nil {
			return err
		}
		if t.Status == SuspendedAlloc {
			// Init alone: collect immediately with only this stack, then
			// climb the rest of the ladder. Init failure is group-fatal —
			// no task can run without the globals.
			g.collect([]*Task{t})
			ok := g.rescueAlloc([]*Task{t}, t.pendingAlloc)
			g.noteLadderOutcome(t, ok)
			if !ok {
				return t.errf(g, "%v", g.oomCause(t.pendingAlloc))
			}
			t.Status = Running
		}
	}
	if t.Status == Faulted {
		return t.Err
	}
	g.sealInit()
	return nil
}

// sealInit closes out a sharded group's init phase. Init runs in shard 0
// and populates the globals, so its young allocations are all "exposed" —
// the flags it raised would block every shard-0 minor from the first
// quantum. A tenure-all collection over the globals alone (the spawned
// tasks' stacks hold no heap pointers yet — just the unit argument) moves
// everything init built into the shared old region, after which the
// exposure flags can be cleared and every shard starts with an empty,
// private nursery.
func (g *Group) sealInit() {
	if !g.sharded {
		return
	}
	if g.Heap.YoungUsed() > 0 {
		g.tenureCollect(nil)
	}
	g.maybeClearExposure()
}

// Run schedules the tasks round-robin until every task is Done or Faulted.
// Per-task failures do not abort the group: a task that trips a runtime
// error or exhausts the recovery ladder transitions to Faulted (cause in
// Task.Fault / Task.Err) and its siblings keep running. The returned error
// reports only group-level failures — the step limit and scheduler
// deadlock.
func (g *Group) Run() error {
	for {
		pending, err := g.runUntilSuspended()
		if err != nil {
			return err
		}
		if !pending {
			if g.Heap.TLABsEnabled() {
				g.Col.Telem.FinalizeTLAB(g.Heap.Stats)
			}
			return nil
		}
		g.collectSuspended()
	}
}

// runUntilSuspended schedules tasks until either every task finished
// (false) or a collection is pending with every live task at a safe point
// (true).
func (g *Group) runUntilSuspended() (bool, error) {
	g.setupTLABs()
	g.setupShards()
	for {
		// Before the supervisor hook, so the stacks of tasks that finished
		// last round are in the pool when it spawns their successors.
		g.compactRunQueue()
		external := false
		if g.Tick != nil && g.rgc == 0 {
			// The supervisor hook runs only between collections: a task it
			// spawns starts Running, which must not break the all-suspended
			// invariant of a pending stop-the-world cycle.
			external = g.Tick(g.steps)
		}
		if g.forceMajor && g.rgc == 0 {
			// A supervisor requested a major cycle (the serve ladder's rung
			// 2). Collections normally start from an allocation failure, but
			// a server shedding every arrival may never allocate again —
			// waiting for an organic trigger would leave occupancy high
			// forever. Raise Rgc so running tasks reach their safe points
			// (the normal stop-the-world path consumes forceMajor); with no
			// runnable task, collect right here over the globals alone.
			anyRunning := false
			for _, t := range g.runq {
				if t.Status == Running {
					anyRunning = true
					break
				}
			}
			if anyRunning {
				g.rgc = 1
			} else {
				g.collectSuspended()
			}
		}
		if g.GCConcurrent && g.rgc == 0 {
			g.concAdvance()
		}
		allDone := true
		anyRan := false
		for _, t := range g.runq {
			if t.Status == Done || t.Status == Faulted {
				continue
			}
			allDone = false
			if t.Status == SuspendedAlloc || t.Status == SuspendedCall {
				continue
			}
			anyRan = true
			if g.sharded {
				// Route this quantum's allocations at the task's own nursery
				// shard.
				g.Heap.SetAllocShard(t.shard)
			}
			before := t.Steps
			if err := g.step(t, g.slice()); err != nil {
				// Fault isolation: the error stops this task only.
				g.faultTask(t, FaultRuntime, 0, err)
				continue
			}
			if t.Status == Done {
				// The task will never allocate again; complete its buffer
				// accounting and release the tail.
				g.retireTaskTLAB(t)
			}
			// Virtual time passes in whole quanta: a turn costs one however
			// early the task left it, a lone task's slice as many as it
			// started.
			q := int64(g.Quantum)
			g.steps += (t.Steps - before + q - 1) / q * q
			if g.steps > g.MaxSteps {
				return false, fmt.Errorf("tasking: step limit exceeded")
			}
		}
		if allDone {
			if external {
				// Open-loop mode: every admitted task finished but the
				// supervisor still expects arrivals. Let virtual time pass
				// so the next Tick can inject them.
				g.steps += int64(g.Quantum)
				if g.steps > g.MaxSteps {
					return false, fmt.Errorf("tasking: step limit exceeded")
				}
				continue
			}
			if g.GCConcurrent {
				g.concRunEnd()
			}
			return false, nil
		}
		if g.sharded {
			g.serviceShardMinors()
		}
		if g.rgc != 0 && g.allSuspended() {
			if g.concPause() {
				continue
			}
			return true, nil
		}
		if !anyRan && g.rgc == 0 {
			return false, fmt.Errorf("tasking: deadlock: tasks suspended with no collection pending")
		}
	}
}

// loneQuanta is how many quanta a task that is alone on the run queue may
// run before the scheduler looks again.
const loneQuanta = 1 << 12

// slice is the instruction count of the next scheduling turn: one quantum,
// or — when exactly one task is unfinished and nothing can need the
// scheduler before that task suspends or finishes (no Tick hook to give
// virtual time to, no concurrent marker to give slices to) — up to
// loneQuanta of them, cut to the first quantum boundary past MaxSteps.
// Called after compactRunQueue, so the queue holds unfinished tasks only;
// with two or more of them every turn is one quantum and the interleaving
// is untouched.
func (g *Group) slice() int {
	if len(g.runq) != 1 || g.Tick != nil || g.GCConcurrent {
		return g.Quantum
	}
	q := int64(g.Quantum)
	n := loneQuanta * q
	if left := g.MaxSteps - g.steps; left < n {
		n = (left/q + 1) * q
	}
	return int(n)
}

// RunMain runs the program as a group of one: the init function, then main
// applied to unit as the only task. It returns main's result word (decode
// with code.DecodeInt etc.) or the error that stopped the run. The policy
// is SuspendAtAllocs: with one task no other can be waiting on a call, and
// it is the policy under which code compiled with §5.1 gc_word elision
// stays sound (see the package comment).
func (g *Group) RunMain() (code.Word, error) {
	g.Policy = SuspendAtAllocs
	t := g.Spawn(g.Prog.MainFunc)
	if err := g.RunInit(); err != nil {
		return 0, err
	}
	if err := g.Run(); err != nil {
		return 0, err
	}
	return t.Result, t.Err
}

// RunUntilCollection schedules the group until a stop-the-world collection
// is about to start and returns the root set the collector would scan,
// without collecting. It returns pending=false when every task finished
// first. Benchmarks use it to measure Collect on realistic mid-execution
// root sets; callers may invoke Collect repeatedly on the returned roots
// (each collection leaves the stacks consistent for the next).
func (g *Group) RunUntilCollection() ([]gc.TaskRoots, bool, error) {
	pending, err := g.runUntilSuspended()
	if err != nil || !pending {
		return nil, false, err
	}
	return g.rootSet(g.pendingTasks()), true, nil
}

// pendingTasks lists the live tasks suspended for the coming collection.
func (g *Group) pendingTasks() []*Task {
	var live []*Task
	for _, t := range g.runq {
		if t.Status == SuspendedAlloc || t.Status == SuspendedCall {
			live = append(live, t)
		}
	}
	return live
}

// rootSet builds the collector's view of the suspended tasks.
func (g *Group) rootSet(live []*Task) []gc.TaskRoots {
	roots := make([]gc.TaskRoots, 0, len(live))
	for _, t := range live {
		roots = append(roots, gc.TaskRoots{
			Stack:  t.stack,
			FP:     t.fp,
			SP:     t.sp,
			PC:     t.pc,
			AtCall: t.Status == SuspendedCall,
		})
	}
	return roots
}

func (g *Group) allSuspended() bool {
	for _, t := range g.runq {
		if t.Status == Running {
			return false
		}
	}
	return true
}

// Concurrent-cycle scheduler phases. The marking engine (gc/concurrent.go)
// owns the gray queue; the scheduler owns when its pauses may run: frame
// maps exist only at call/alloc instructions, so the root snapshot and the
// final re-scan ride the same Rgc suspend wave a stop-the-world collection
// uses, while mark slices — which touch no stacks — run between rounds.
const (
	concIdle          = iota
	concStartPending  // wave raised to snapshot roots and start the cycle
	concMarking       // cycle active; one mark slice per scheduling round
	concFinishPending // gray queue drained; wave raised for the final pause
)

// concAdvance drives the concurrent collector between task quanta: it
// raises the start wave when occupancy crosses the watermark, runs one
// marking slice per round while the cycle is active, raises the finish
// wave once the gray queue drains, and aborts to an ordinary
// stop-the-world collection when the slice watchdog trips. Callers
// guarantee g.rgc == 0.
func (g *Group) concAdvance() {
	switch g.concPhase {
	case concIdle:
		if g.Col.ConcActive() {
			return // cycle mid-flight with no wave pending (marking phase)
		}
		pct := g.ConcTriggerPct
		if pct <= 0 {
			pct = 75
		}
		// Occupancy, not Used(): the mark/sweep bump pointer saturates
		// permanently once the region fills, while freed storage parks on
		// the free lists. Used minus free-list words is what is live+floating.
		occ := g.Heap.OccupiedWords()
		if 100*occ < pct*g.Heap.SemiWords() {
			return
		}
		// Hysteresis: a heap whose live set sits above the watermark would
		// otherwise re-cycle every round reclaiming nothing. Require real
		// allocation since the last collection before cycling again.
		if occ < g.concLastEnd+g.Heap.SemiWords()/8 {
			return
		}
		g.concPhase = concStartPending
		g.rgc = 1
	case concMarking:
		if !g.Col.ConcActive() {
			// The write barrier aborted the cycle mid-quantum (a non-ground
			// store it cannot type). Raise an ordinary stop-the-world wave to
			// reclaim — the fallback the abort rung promises.
			g.concPhase = concIdle
			g.rgc = 1
			return
		}
		switch g.Col.ConcSlice() {
		case gc.ConcDrained:
			g.concPhase = concFinishPending
			g.rgc = 1
		case gc.ConcOverBudget:
			// The watchdog rung: the gray queue refused to drain within the
			// slice budget (a store-heavy mutator regrowing it faster than
			// marking retires it). Abort the cycle and raise an ordinary
			// stop-the-world wave, which reclaims with the serial collector.
			g.Col.ConcAbort()
			g.concPhase = concIdle
			g.rgc = 1
		}
	}
}

// concPause services a suspend wave that belongs to the concurrent cycle
// (start or finish) rather than a collection: every live task is at a safe
// point, so the stacks can be scanned. It reports whether the wave was
// consumed here — tasks resumed, scheduling continues. A wave carrying a
// genuine allocation failure (a SuspendedAlloc task that asked for memory,
// including torture and injections — not one merely parked by the raised
// Rgc under SuspendAtAllocs) returns false and hands over to the
// stop-the-world path, whose CollectFull aborts any in-flight cycle
// automatically.
func (g *Group) concPause() bool {
	if g.concPhase != concStartPending && g.concPhase != concFinishPending {
		// A genuine collection wave (allocation failure, forced major). The
		// stop-the-world collect aborts any cycle still marking, so the
		// scheduler phase resets with it.
		g.concPhase = concIdle
		return false
	}
	live := g.pendingTasks()
	for _, t := range live {
		if t.Status == SuspendedAlloc && !t.parkedByRgc {
			// An allocation failure shares the wave: memory is needed NOW,
			// and only a full collection (with the rescue ladder behind it)
			// guarantees it. Let collectSuspended take over.
			g.concPhase = concIdle
			return false
		}
	}
	g.Stats.SuspendLatency = append(g.Stats.SuspendLatency, g.latency)
	g.latency = 0
	if g.concPhase == concStartPending {
		g.Col.ConcStart(g.rootSet(live), g.Globals)
		g.concPhase = concMarking
	} else {
		g.Col.ConcFinish(g.rootSet(live), g.Globals)
		g.Stats.Collections++
		g.concPhase = concIdle
		g.concLastEnd = g.Heap.OccupiedWords()
	}
	g.rgc = 0
	for _, t := range live {
		t.Status = Running
	}
	return true
}

// concRunEnd closes out concurrent state when the last task finishes: a
// cycle still marking (or about to finish) completes over the globals
// alone — the sweep, the telemetry record and the verifier all still run —
// and a wave that never gathered is stood down.
func (g *Group) concRunEnd() {
	if g.Col.ConcActive() {
		g.Col.ConcFinish(nil, g.Globals)
		g.Stats.Collections++
	}
	g.concPhase = concIdle
	g.rgc = 0
}

// collectSuspended runs a stop-the-world collection over every live task
// and resumes them, climbing the rest of the recovery ladder for any task
// whose pending allocation the collection did not satisfy: grow the heap
// (when GrowFactor enables it) and, only when growth is off or capped,
// fault that one task. Siblings always resume (otherwise the group would
// either cycle through collections forever or die with one greedy task).
func (g *Group) collectSuspended() {
	live := g.pendingTasks()
	g.collect(live)
	if g.forceMajor {
		// An external supervisor (the serve degradation ladder) asked for a
		// tenure-all cycle: empty the nursery into the old region so shed
		// decisions are judged against real headroom.
		g.forceMajor = false
		if g.Heap.NurseryEnabled() {
			g.tenureCollect(live)
		}
	}
	g.Stats.SuspendLatency = append(g.Stats.SuspendLatency, g.latency)
	g.latency = 0
	// Rescue before resuming anyone: rescueAlloc's generational rungs run
	// further collections over these same stacks, and a task's root
	// treatment (AtCall) is read from its still-suspended status.
	for _, t := range live {
		if t.Status != SuspendedAlloc {
			continue
		}
		if g.sharded {
			// The retry and the ladder's Need checks judge headroom against
			// the blocked task's own nursery shard.
			g.Heap.SetAllocShard(t.shard)
		}
		ok := g.rescueAlloc(live, t.pendingAlloc)
		g.noteLadderOutcome(t, ok)
		if !ok {
			g.faultTask(t, FaultOOM, t.pendingAlloc, g.oomCause(t.pendingAlloc))
		}
	}
	for _, t := range live {
		if t.Status != Faulted {
			t.Status = Running
		}
	}
	g.concLastEnd = g.Heap.OccupiedWords()
}

// serviceShardMinors runs any pending single-shard minor whose tasks have
// all reached safe points. Unlike a stop-the-world wave, a shard wave
// gathers only its own tasks: the scheduler keeps stepping every other
// shard between rounds, so their mutation overlaps the shard's collection
// (the overlap Stats.ShardMinorOverlapTasks measures). A wave whose shard
// is no longer minor-eligible — an exposure landed after the raise, a
// barrier overflow forced the next cycle major — escalates to the ordinary
// global wave instead, as does a shard whose minor did not free enough for
// the blocked allocation (the global ladder has the full/tenure/grow rungs
// a shard minor lacks).
func (g *Group) serviceShardMinors() {
	for s := range g.rgcShard {
		if g.rgcShard[s] == 0 {
			continue
		}
		if g.rgc != 0 {
			// A global wave is also pending; its collection empties every
			// nursery, subsuming this shard's. The shard's suspended tasks
			// join the global wave and are rescued/resumed with it.
			g.rgcShard[s] = 0
			continue
		}
		var mine []*Task
		ready := true
		overlap := 0
		for _, t := range g.runq {
			switch t.Status {
			case Running:
				if t.shard == s {
					ready = false
				} else {
					overlap++
				}
			case SuspendedAlloc, SuspendedCall:
				if t.shard == s {
					mine = append(mine, t)
				}
			}
		}
		if !ready {
			continue // shard tasks still draining to their safe points
		}
		if !g.Col.MinorEligible() || g.exposed[s] {
			g.rgcShard[s] = 0
			g.rgc = 1
			continue
		}
		// Only this shard's young TLABs must be retired: other shards' young
		// buffers are untouched by a shard minor, and promotion allocates
		// past any live old-region carve.
		for _, t := range mine {
			g.retireTaskTLAB(t)
		}
		g.Col.CollectMinorShard(s, g.rootSet(mine), g.Globals)
		g.Stats.Collections++
		g.Stats.ShardMinors++
		g.Stats.ShardMinorOverlapTasks += int64(overlap)
		g.rgcShard[s] = 0
		g.Heap.SetAllocShard(s)
		escalate := false
		for _, t := range mine {
			if t.Status == SuspendedAlloc && g.allocBlocked(t.pendingAlloc) {
				// The shard minor was not enough; climb the global ladder.
				// The task stays suspended and is rescued by the global
				// collection's collectSuspended.
				t.allocEmergency = true
				escalate = true
			}
		}
		if escalate {
			g.Col.Telem.Resilience.EmergencyCollections++
			g.rgc = 1
			continue
		}
		for _, t := range mine {
			if t.Status != Faulted {
				t.Status = Running
			}
		}
	}
}

// rescueAlloc climbs the post-collection rungs of the ladder for a pending
// allocation of n fields: if the collection freed enough, done; otherwise
// escalate through the generational rungs (full collection, then a
// tenure-all collection that empties the nursery) and finally grow the
// heap by GrowFactor per attempt up to the MaxHeapWords ceiling. live is
// the suspended-task set whose stacks root the escalation collections.
func (g *Group) rescueAlloc(live []*Task, n int) bool {
	if !g.allocBlocked(n) {
		return true
	}
	if g.Heap.NurseryEnabled() {
		// The triggering collection may have been minor; a full collection
		// reclaims old-region garbage the minor cycle never looked at.
		if g.Col.LastCollectionMinor() {
			g.fullCollect(live)
			if !g.allocBlocked(n) {
				return true
			}
		}
		// Survivors below the promotion age can pin the nursery across any
		// number of full collections; tenure them all so an oversized
		// request can be judged against the real old-region headroom.
		g.tenureCollect(live)
		if !g.allocBlocked(n) {
			return true
		}
	}
	for g.GrowFactor > 1 {
		cur := g.Heap.SemiWords()
		next := int(float64(cur) * g.GrowFactor)
		if next <= cur {
			next = cur + 1
		}
		if g.MaxHeapWords > 0 && next > g.MaxHeapWords {
			next = g.MaxHeapWords
		}
		if next <= cur {
			return false // ceiling reached
		}
		if err := g.Heap.Grow(next); err != nil {
			return false
		}
		g.Col.Telem.Resilience.HeapGrowths++
		if !g.allocBlocked(n) {
			return true
		}
		if g.Heap.NurseryEnabled() {
			// Growth extends only the old region; re-tenure so the enlarged
			// region can absorb whatever still pins the nursery.
			g.tenureCollect(live)
			if !g.allocBlocked(n) {
				return true
			}
		}
	}
	return false
}

// oomCause materializes the typed exhaustion error for a pending
// allocation the ladder could not satisfy.
func (g *Group) oomCause(n int) error {
	if _, err := g.Heap.Alloc(n); err != nil {
		return err
	}
	return fmt.Errorf("allocation of %d fields failed transiently", n)
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

// noteLadderOutcome resolves one task's recovery-ladder climb: recovered
// (the retry will succeed) or exhausted (the task is about to fault).
// Only counted for tasks whose suspension was a failed allocation —
// emergency climbs — not for siblings parked by Rgc or torture.
func (g *Group) noteLadderOutcome(t *Task, ok bool) {
	if !t.allocEmergency {
		return
	}
	t.allocEmergency = false
	if ok {
		g.Col.Telem.Resilience.LadderRecovered++
	} else {
		g.Col.Telem.Resilience.LadderExhausted++
	}
}

// stepsSpent and wordsSpent are the two per-task budgets, each stated once.
// extraAlloc is the field-word size of an allocation about to be requested
// (0 at call dispatch).
func (g *Group) stepsSpent(t *Task) bool {
	return g.BudgetSteps > 0 && t.Steps > g.BudgetSteps
}

func (g *Group) wordsSpent(t *Task, extraAlloc int) bool {
	return g.BudgetAllocWords > 0 && t.AllocWords+int64(extraAlloc) > g.BudgetAllocWords
}

// spent reports whether the task has exceeded a per-task budget. It is the
// test both safe points make on every visit, and small enough to be made in
// line; overBudget words the cause.
func (g *Group) spent(t *Task, extraAlloc int) bool {
	return g.stepsSpent(t) || g.wordsSpent(t, extraAlloc)
}

// overBudget is the typed cause of a spent budget: the step budget's if both
// are.
func (g *Group) overBudget(t *Task, extraAlloc int) error {
	if g.stepsSpent(t) {
		return fmt.Errorf("step budget exhausted: %d instructions executed, limit %d", t.Steps, g.BudgetSteps)
	}
	return fmt.Errorf("allocation budget exhausted: %d words requested, quota %d", t.AllocWords+int64(extraAlloc), g.BudgetAllocWords)
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

func (g *Group) collect(live []*Task) {
	g.Col.Collect(g.rootSet(live), g.Globals)
	g.Stats.Collections++
	g.rgc = 0
	g.clearShardWaves()
	g.maybeClearExposure()
}

// fullCollect forces a major collection (a rescue-ladder rung; the normal
// path goes through collect, which lets the collector pick minor/major).
func (g *Group) fullCollect(live []*Task) {
	g.Col.CollectFull(g.rootSet(live), g.Globals)
	g.Stats.Collections++
	g.maybeClearExposure()
}

// tenureCollect runs a full collection with every nursery survivor
// promoted regardless of age, emptying the young generation.
func (g *Group) tenureCollect(live []*Task) {
	g.Heap.SetTenureAll(true)
	g.fullCollect(live)
	g.Heap.SetTenureAll(false)
}

// ---------------------------------------------------------------------------
// Per-task execution.
// ---------------------------------------------------------------------------

// enter makes fidx the root frame of a fresh task: the first instruction it
// executes is the function's entry, and returning from it finishes the task.
// The record is laid out as a call lays one out (Figure 1): dynamic link,
// return address, then the slots.
func (g *Group) enter(t *Task, fidx int) {
	fi := g.Prog.Funcs[fidx]
	fp := t.sp
	t.sp = fp + 2 + fi.NSlots
	t.reserve(t.sp)
	t.MaxStackWords = max(t.MaxStackWords, t.sp)
	t.stack[fp], t.stack[fp+1] = -1, -1
	if g.ZeroFill {
		clear(t.stack[fp+2 : t.sp])
		t.ZeroFilledWords += int64(fi.NSlots)
	}
	t.depth++
	t.MaxFrameDepth = max(t.MaxFrameDepth, t.depth)
	t.fp, t.pc = fp, fi.Entry
}

// reserve grows the task's stack array to hold at least sp words.
func (t *Task) reserve(sp int) {
	if sp > len(t.stack) {
		ns := make([]code.Word, sp*2)
		copy(ns, t.stack)
		t.stack = ns
	}
}

// operand reads an instruction operand (code.EncodeAtom): a slot of the frame
// at fp when the word is non-negative, else a cell of the statics array.
func operand(stack, statics []code.Word, fp int, w code.Word) code.Word {
	if w >= 0 {
		return stack[fp+2+int(w)]
	}
	return statics[^w]
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

// Events: why the dispatch loop of step handed the instruction at pc to the
// event loop around it.
const (
	evSlice      = iota // the instruction limit is reached
	evCold              // an instruction that calls into Go (Group.cold)
	evDone              // a return from the root frame
	evCall              // a call diverted by a raised Rgc or a spent budget
	evFrame             // a callee frame that ends past the stack array
	evAlloc             // an object that ends past the allocation window
	evLoad              // a field load with a hook to run on the loaded word
	evStore             // a field store with a barrier to run after it
	evDivZero           // a division or modulus by zero
	evBadClosure        // an application of an unboxed word
)

// boolWord encodes r under the representation whose integer tag bit is tag:
// the integers 0 and 1.
func boolWord(tag code.Word, r bool) code.Word {
	if r {
		return tag<<1 | 1
	}
	return tag
}

// fieldIndex is the index, in the heap's word array, of field i of the object
// at encoded pointer p: tag is 1 under the tagged representation, which
// shifts its pointers one bit and heads every object with one word, else 0.
func fieldIndex(p, tag code.Word, i int) int {
	return int(p>>(uint(tag)&1)) + int(tag) - code.HeapBase + i
}

// sliceConsts is what the dispatch loop reads and — the allocation window
// aside — never writes. It is one struct so that it lives in step's frame: a struct of more than four fields
// stays in memory and a field is loaded where it is used, which leaves the
// registers to the loop-carried state. As separate locals these values made
// the loop store and reload pc and the count on every instruction
// (`make profile-interp` counts the loop's stack-relative operands).
type sliceConsts struct {
	funcs []*code.FuncInfo
	// mem is the heap's word array, which is replaced only when the heap
	// grows — a rung of the recovery ladder, climbed between slices.
	mem, statics []code.Word
	// tag fixes the value representation — the tag bit of its integers, 0
	// when tag-free: false is tag and true 2·tag+1 (the integers 0 and 1),
	// and fieldIndex has the rest.
	tag  code.Word
	repr code.Repr
	// zeroFill is Group.ZeroFill; stHook says that a field store is followed
	// by its event, divert that a call is.
	zeroFill, stHook, divert bool
	// A field load is followed by its event when ldHook is set and the loaded
	// word can trip a hook: it is the pruning sentinel, or lies in young (every
	// nursery of a sharded group) and not in own, the task's shard's. ldAll
	// traps every load: a SetDebugAccess heap validates the access itself.
	ldHook, ldAll bool
	young, own    wordRange
	// win is the allocation window: the loop lays objects at win.HP while
	// they end at or before win.Limit, and raises evAlloc — with the field
	// count in need — for the gate to open another (Group.alloc). It is the
	// one part of this struct the loop writes, and it stays a memory operand.
	win  heap.Window
	need int
}

// wordRange is the words lo ≤ w < lo+span.
type wordRange struct{ lo, span uint64 }

func (r wordRange) has(w code.Word) bool { return uint64(w)-r.lo < r.span }

// step executes up to quantum instructions of one task: the dispatch loop of
// the repository's one interpreter (DESIGN.md §12).
//
// The inner loop carries the code, the stack, pc, fp, sp and the instructions
// left in locals, makes no Go call, and implements every instruction that
// needs none — the allocating ones included: an object is laid in the
// allocation window (sliceConsts.win), a bump and a store per field. Anything
// else is an event: the loop writes its state back to the task, event handles
// it with the task as the only state, and the loop is entered again. A hooked
// load or store does its plain work in the loop and raises its event
// afterwards, and an allocation whose window is too short raises its event
// before doing anything (the gate, alloc, opens another window or stops the
// task, and the instruction runs again), so no instruction is implemented
// twice. The objects laid are booked — heap and task counters, the bump
// pointer — whenever the loop is left (settle): every count is exact at
// every event, as the task's own are.
//
// Only the instruction that ends a slice — an allocation suspending its own
// task — can raise a wave, so whether calls are diverted into the suspension
// stub and whether instructions count towards the suspension latency are
// decided once per slice; the group's instruction and Rgc-check counts are
// added when it ends, and the task's own counters are exact at every event.
func (g *Group) step(t *Task, quantum int) error {
	prog, h := g.Prog, g.Heap
	c := prog.Code
	mem, checked := h.Words()
	k := sliceConsts{
		funcs:    prog.Funcs,
		mem:      mem,
		statics:  g.statics,
		repr:     prog.Repr,
		tag:      code.EncodeInt(prog.Repr, 0),
		zeroFill: g.ZeroFill,
		stHook:   h.NurseryEnabled() || g.GCConcurrent,
		ldHook:   g.PoisonPruned || g.sharded || checked,
		ldAll:    checked,
	}
	if g.sharded {
		k.young.lo, k.young.span = h.YoungRange(-1)
		k.own.lo, k.own.span = h.YoungRange(t.shard)
	}
	waveUp := g.rgc != 0
	// The Rgc register is added to every call target (SuspendAtCalls):
	// nonzero diverts into the suspension stub (§4). A sharded group has one
	// more register per shard — only the task's own shard's wave parks it.
	// Budgets are enforced at the same safe point, so a spent one diverts
	// calls as well: from the start, or — the step budget — from the
	// instruction that spends it, the slice's divertAt-th.
	atCalls := g.Policy == SuspendAtCalls
	k.divert = atCalls && (waveUp || (g.sharded && g.rgcShard[t.shard] != 0))
	divertAt := quantum
	if g.spent(t, 0) {
		k.divert = true
	} else if g.BudgetSteps > 0 {
		divertAt = int(min(int64(quantum), g.BudgetSteps-t.Steps))
	}

	steps0, calls0 := t.Steps, t.Calls+t.ClosCalls
	n := 0
	var err error
	for {
		// The loop carries pc, fp, sp and the instructions left; the counters
		// and high-water marks a call or a return touches are updated in the
		// task, off the path from one instruction to the next.
		stack := t.stack
		pc, fp, sp := t.pc, t.fp, t.sp
		left := quantum - n
		if !k.divert {
			left = divertAt - n
		}
		n += left
		ev := evSlice
	dispatch:
		for left > 0 {
			left--
			switch c[pc] {
			case code.OpRet:
				ret := int(stack[fp+1])
				if ret < 0 {
					ev = evDone
					break dispatch
				}
				val := operand(stack, k.statics, fp, c[pc+1])
				sp, fp = fp, int(stack[fp])
				t.depth--
				stack[fp+2+int(c[ret+1])] = val
				pc = ret + code.CallLen(c, ret)

			case code.OpJmp:
				pc = int(c[pc+1])

			case code.OpJz:
				// DecodeBool for both representations: false is the smallest
				// boolean word, and no smaller word is true.
				if uint64(operand(stack, k.statics, fp, c[pc+1])) > uint64(k.tag) {
					pc += 3
				} else {
					pc = int(c[pc+2])
				}

			case code.OpMove:
				stack[fp+2+int(c[pc+1])], pc = operand(stack, k.statics, fp, c[pc+2]), pc+3

			// Tagged variants strip and reinstate the tag bit: add/sub use the
			// classic one-instruction identity, mul/div/mod pay the full strip
			// cost — the paper's "tag manipulation" overhead.
			case code.OpAdd:
				stack[fp+2+int(c[pc+1])], pc = operand(stack, k.statics, fp, c[pc+2])+operand(stack, k.statics, fp, c[pc+3]), pc+4
			case code.OpSub:
				stack[fp+2+int(c[pc+1])], pc = operand(stack, k.statics, fp, c[pc+2])-operand(stack, k.statics, fp, c[pc+3]), pc+4
			case code.OpMul:
				stack[fp+2+int(c[pc+1])], pc = operand(stack, k.statics, fp, c[pc+2])*operand(stack, k.statics, fp, c[pc+3]), pc+4
			case code.OpDiv:
				b := operand(stack, k.statics, fp, c[pc+3])
				if b == 0 {
					ev = evDivZero
					break dispatch
				}
				stack[fp+2+int(c[pc+1])], pc = operand(stack, k.statics, fp, c[pc+2])/b, pc+4
			case code.OpMod:
				b := operand(stack, k.statics, fp, c[pc+3])
				if b == 0 {
					ev = evDivZero
					break dispatch
				}
				stack[fp+2+int(c[pc+1])], pc = operand(stack, k.statics, fp, c[pc+2])%b, pc+4
			case code.OpTAdd:
				stack[fp+2+int(c[pc+1])], pc = operand(stack, k.statics, fp, c[pc+2])+operand(stack, k.statics, fp, c[pc+3])-1, pc+4
			case code.OpTSub:
				stack[fp+2+int(c[pc+1])], pc = operand(stack, k.statics, fp, c[pc+2])-operand(stack, k.statics, fp, c[pc+3])+1, pc+4
			case code.OpTMul:
				stack[fp+2+int(c[pc+1])], pc = ((operand(stack, k.statics, fp, c[pc+2])>>1)*(operand(stack, k.statics, fp, c[pc+3])>>1)<<1)|1, pc+4
			case code.OpTDiv:
				b := operand(stack, k.statics, fp, c[pc+3]) >> 1
				if b == 0 {
					ev = evDivZero
					break dispatch
				}
				stack[fp+2+int(c[pc+1])], pc = (operand(stack, k.statics, fp, c[pc+2])>>1)/b<<1|1, pc+4
			case code.OpTMod:
				b := operand(stack, k.statics, fp, c[pc+3]) >> 1
				if b == 0 {
					ev = evDivZero
					break dispatch
				}
				stack[fp+2+int(c[pc+1])], pc = (operand(stack, k.statics, fp, c[pc+2])>>1)%b<<1|1, pc+4
			case code.OpNeg:
				stack[fp+2+int(c[pc+1])], pc = -operand(stack, k.statics, fp, c[pc+2]), pc+3
			case code.OpTNeg:
				stack[fp+2+int(c[pc+1])], pc = 2-operand(stack, k.statics, fp, c[pc+2]), pc+3

			case code.OpEq:
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, operand(stack, k.statics, fp, c[pc+2]) == operand(stack, k.statics, fp, c[pc+3])), pc+4
			case code.OpNe:
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, operand(stack, k.statics, fp, c[pc+2]) != operand(stack, k.statics, fp, c[pc+3])), pc+4
			case code.OpLt:
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, operand(stack, k.statics, fp, c[pc+2]) < operand(stack, k.statics, fp, c[pc+3])), pc+4
			case code.OpLe:
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, operand(stack, k.statics, fp, c[pc+2]) <= operand(stack, k.statics, fp, c[pc+3])), pc+4
			case code.OpGt:
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, operand(stack, k.statics, fp, c[pc+2]) > operand(stack, k.statics, fp, c[pc+3])), pc+4
			case code.OpGe:
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, operand(stack, k.statics, fp, c[pc+2]) >= operand(stack, k.statics, fp, c[pc+3])), pc+4

			case code.OpNot:
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, uint64(operand(stack, k.statics, fp, c[pc+2])) <= uint64(k.tag)), pc+3
			case code.OpIsBoxed:
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, code.IsBoxedValue(k.repr, operand(stack, k.statics, fp, c[pc+2]))), pc+3

			case code.OpTagIs:
				w := k.mem[fieldIndex(operand(stack, k.statics, fp, c[pc+2]), k.tag, 0)] >> (uint(k.tag) & 1)
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, w == c[pc+3]), pc+4
				if k.ldAll {
					ev = evLoad
					break dispatch
				}

			case code.OpLdFld:
				v := k.mem[fieldIndex(operand(stack, k.statics, fp, c[pc+2]), k.tag, int(c[pc+3]))]
				stack[fp+2+int(c[pc+1])], pc = v, pc+4
				if k.ldHook && (k.ldAll || v == code.PrunedWord || k.young.has(v) && !k.own.has(v)) {
					ev = evLoad
					break dispatch
				}

			case code.OpStFld:
				p := operand(stack, k.statics, fp, c[pc+1])
				k.mem[fieldIndex(p, k.tag, int(c[pc+2]))] = operand(stack, k.statics, fp, c[pc+3])
				pc += 4
				if k.stHook {
					ev = evStore
					break dispatch
				}

			// A call lays the callee's record on top of the stack — dynamic
			// link, return address (the pc of the call itself, from which the
			// collector and the diagnostics recover the frame's gc_word and
			// function), then the slots — and copies the arguments out of the
			// caller's slots.
			case code.OpCall, code.OpCallC:
				if k.divert {
					ev = evCall
					break dispatch
				}
				var fi *code.FuncInfo
				var clos code.Word
				if c[pc] == code.OpCall {
					fi = k.funcs[c[pc+2]]
				} else {
					clos = operand(stack, k.statics, fp, c[pc+3])
					if !code.IsBoxedValue(k.repr, clos) {
						ev = evBadClosure
						break dispatch
					}
					fi = k.funcs[k.mem[fieldIndex(clos, k.tag, 0)]>>(uint(k.tag)&1)]
				}
				nsp := sp + 2 + fi.NSlots
				if nsp > t.MaxStackWords {
					if nsp > len(stack) {
						ev = evFrame
						break dispatch
					}
					t.MaxStackWords = nsp
				}
				stack[sp], stack[sp+1] = code.Word(fp), code.Word(pc)
				if k.zeroFill {
					for j := sp + 2; j < nsp; j++ {
						stack[j] = 0
					}
					t.ZeroFilledWords += int64(fi.NSlots)
				}
				if c[pc] == code.OpCall {
					for j, w := range c[pc+5 : pc+5+int(c[pc+4])] {
						v := operand(stack, k.statics, fp, w)
						if j < fi.NParams {
							stack[sp+2+j] = v
						} else {
							stack[sp+2+fi.RepArgBase+(j-fi.NParams)] = v
						}
					}
					t.Calls++
				} else {
					stack[sp+2], stack[sp+3] = clos, operand(stack, k.statics, fp, c[pc+4])
					t.ClosCalls++
				}
				fp, sp, pc = sp, nsp, fi.Entry
				if t.depth++; t.depth > t.MaxFrameDepth {
					t.MaxFrameDepth = t.depth
				}

			// An object is laid at the head of the allocation window: its
			// header word under the tagged representation, its header field
			// if it has one — a constructor's tag, a closure's function index
			// — then the operands at c[args:], read once the object exists
			// (nothing can intervene: an instruction is not a safe point).
			// One that does not fit is the safe point: the gate opens another
			// window, or a collection happens first, and it runs again.
			//
			// Laying an object needs more registers than the loop can spare,
			// and a value the compiler evicts here it stores where it is
			// defined — for the count, at the head of the loop, on every
			// instruction of every program. So the count is parked in the
			// task for the length of this case and read back where its two
			// paths meet (a load the compiler cannot forward), which keeps it
			// in its register everywhere else (`make profile-interp`).
			case code.OpMkRef, code.OpMkTuple, code.OpMkBox, code.OpMkClos:
				t.parked = left
				args, nargs, hdr := pc+3, 1, false
				switch c[pc] {
				case code.OpMkTuple:
					args, nargs = pc+4, int(c[pc+3])
				case code.OpMkBox:
					args, nargs, hdr = pc+5, int(c[pc+4]), c[pc+3] >= 0
				case code.OpMkClos:
					args, nargs, hdr = pc+7, int(c[pc+5]+c[pc+6]), true
				}
				f := k.win.HP + int(k.tag) // the first operand's word: past the header word
				if hdr {
					f++ // and past the header field
				}
				if f+nargs > k.win.Limit {
					k.need = f + nargs - k.win.HP - int(k.tag)
					ev = evAlloc
				} else {
					ptr := code.Word(code.HeapBase + k.win.HP)
					if k.tag != 0 {
						k.mem[k.win.HP] = code.Word(f+nargs-k.win.HP-1)<<1 | 1 // odd header: field count
						ptr <<= 1
					}
					if hdr {
						k.mem[f-1] = c[pc+3]*(1+k.tag) | k.tag // EncodeInt, without a shift by a variable
					}
					for i := 0; i < nargs; i++ {
						k.mem[f+i] = operand(stack, k.statics, fp, c[args+i])
					}
					if c[pc] == code.OpMkClos && c[pc+4] >= 0 {
						// The closure captures itself in this capture.
						k.mem[k.win.HP+int(k.tag)+1+int(c[pc+5]+c[pc+4])] = ptr
					}
					k.win.HP, k.win.Objects = f+nargs, k.win.Objects+1
					stack[fp+2+int(c[pc+1])], pc = ptr, args+nargs
				}
				left = t.parked
				if ev == evAlloc {
					break dispatch
				}

			default:
				ev = evCold
				break dispatch
			}
		}
		n -= left
		if ev == evFrame {
			n-- // the call has not executed: it runs again on a longer stack
		}
		t.pc, t.fp, t.sp = pc, fp, sp
		t.Steps = steps0 + int64(n)
		if k.win.Objects != 0 {
			g.settle(t, &k.win)
		}
		if ev == evSlice {
			if n >= quantum {
				break
			}
			k.divert = true // the step budget's undiverted prefix is over
		} else if ev == evAlloc {
			// The gate judges the attempt as a counted step. One it grants a
			// window has not executed: it runs again, in the window.
			if !g.alloc(t, &k) {
				break
			}
			n--
		} else if err = g.event(t, ev); err != nil || t.Status != Running {
			break
		}
	}
	g.Stats.Instructions += int64(n)
	if atCalls {
		// Every call dispatched under this policy compared Rgc once; event
		// counted the ones that did not complete.
		g.Stats.RgcChecks += t.Calls + t.ClosCalls - calls0
	}
	if waveUp {
		g.latency += int64(n)
	}
	return err
}

// event handles what the dispatch loop of step left it: the instruction at
// t.pc (or, for the hooks that run after a load or a store, the four words
// before it), with the task written back. The slice ends when it returns an
// error — a runtime fault of the task — or leaves the task not Running.
func (g *Group) event(t *Task, ev int) error {
	c, h := g.Prog.Code, g.Heap
	atom := func(w code.Word) code.Word { return operand(t.stack, g.statics, t.fp, w) }
	switch ev {
	case evCold:
		return g.cold(t)

	case evDone:
		t.Result = atom(c[t.pc+1])
		t.sp = t.fp
		t.depth--
		t.Status = Done

	case evCall:
		// Call dispatch is where a task can be stopped without leaving a
		// half-built frame or heap object: the instruction runs again when a
		// parked task resumes.
		if g.Policy == SuspendAtCalls {
			g.Stats.RgcChecks++
			if g.rgc != 0 || (g.sharded && g.rgcShard[t.shard] != 0) {
				t.Status = SuspendedCall
				return nil
			}
		}
		if !g.spent(t, 0) {
			panic("tasking: call diverted with no wave raised and no budget spent")
		}
		g.faultTask(t, FaultBudget, 0, g.overBudget(t, 0))

	case evFrame:
		t.reserve(len(t.stack) + 1)

	case evLoad:
		// The pointer is still in its slot: a load's destination is a slot the
		// instruction itself defines, and codegen reuses none.
		pc := t.pc - 4
		field, v := int(c[pc+3]), t.stack[t.fp+2+int(c[pc+1])]
		if c[pc] == code.OpTagIs {
			field = 0 // the tag word; v is the boolean, which trips no hook below
		}
		h.Field(atom(c[pc+2]), field) // validates the access on a SetDebugAccess heap
		if g.PoisonPruned && v == code.PrunedWord {
			t.pc = pc
			return t.errf(g, "poison: load of pruned field %d — heap-liveness verdict was wrong", field)
		}
		if g.sharded && h.InYoung(v) && h.YoungShardOf(v) != t.shard {
			// A foreign shard's young pointer just landed on this stack; that
			// shard's minors no longer see all their roots. (The word may be
			// an integer aliasing a young address — the exposure is
			// conservative, see expose.)
			g.expose(v)
		}

	case evStore:
		pc := t.pc - 4
		g.storeBarrier(pc, atom(c[pc+1]), int(c[pc+2]), atom(c[pc+3]))

	case evDivZero:
		return t.errf(g, "division by zero")

	case evBadClosure:
		if g.Policy == SuspendAtCalls {
			g.Stats.RgcChecks++
		}
		return t.errf(g, "application of an undefined recursive closure")
	}
	return nil
}

// cold executes the instruction at t.pc for the dispatch loop: one that calls
// into Go — a type rep to intern, a builtin, a global to set, a trap. None of
// them allocates in the heap or is a safe point; the allocating instructions
// are the loop's own (step), and their safe point is the gate (alloc).
func (g *Group) cold(t *Task) error {
	prog, h := g.Prog, g.Heap
	c, repr := prog.Code, prog.Repr
	stack, pc, fp := t.stack, t.pc, t.fp
	atom := func(w code.Word) code.Word { return operand(stack, g.statics, fp, w) }
	var res code.Word
	next := pc
	switch op := c[pc]; op {
	case code.OpMkRep:
		// The handles go through a stack buffer (Intern copies what it
		// keeps), so a polymorphic call chain allocates nothing on the host.
		var buf [8]int
		children := buf[:0]
		for _, w := range c[pc+5 : pc+5+int(c[pc+4])] {
			children = append(children, int(code.DecodeInt(repr, atom(w))))
		}
		rep := prog.Reps.Intern(code.TDKind(c[pc+2]), int(c[pc+3]), children)
		res, next = code.EncodeInt(repr, int64(rep)), pc+5+len(children)

	case code.OpBuiltin:
		g.builtin(t, c[pc+2], atom(c[pc+3]))
		res, next = code.EncodeInt(repr, 0), pc+4

	case code.OpSetGlobal:
		v := atom(c[pc+2])
		if g.sharded && h.InYoung(v) {
			// Globals are traced during every shard minor, so the stored
			// pointer itself stays sound — but any task can now copy it
			// onto a stack the shard's minors never scan, so the shard
			// must be blocked from here on.
			g.expose(v)
		}
		g.Globals[int(c[pc+1])] = v
		t.pc = pc + 3
		return nil

	case code.OpMatchFail:
		return t.errf(g, "match failure: no pattern matched")

	case code.OpHalt:
		t.Status = Done
		return nil

	default:
		return t.errf(g, "illegal opcode %d", op)
	}
	stack[fp+2+int(c[pc+1])] = res
	t.pc = next
	return nil
}

// storeBarrier runs after an OpStFld on a heap that needs one. Stack slots
// and globals need no barrier — they are re-traced as roots on every
// collection; only interior heap stores can create edges a partial trace
// would miss. The compiler records the stored value's static type per store
// site (Program.StoreDescs), omitting types that cannot hold pointers, so a
// missing descriptor means a dynamic range check would be matching an
// integer that merely aliases a young address.
func (g *Group) storeBarrier(pc int, obj code.Word, field int, v code.Word) {
	h := g.Heap
	if !h.NurseryEnabled() {
		// Incremental-update barrier: graying the stored value keeps
		// marking sound when the mutator re-points a field of an
		// already-scanned (black) object at an unmarked target.
		if g.Col.ConcActive() {
			if d := g.Prog.StoreDescs[pc]; d != nil {
				g.Col.ConcBarrier(d, v)
			}
		}
		return
	}
	if !h.InYoung(v) {
		return
	}
	// Old→young write barrier: only stores that can hold a pointer ever
	// consult the remembered set.
	if d := g.Prog.StoreDescs[pc]; d != nil && h.InOld(obj) {
		g.Col.Remember(obj, field, d)
	}
	if g.Shards > 1 && h.InYoung(obj) && h.YoungShardOf(v) != h.YoungShardOf(obj) {
		// A cross-shard young→young edge: v's shard can no longer
		// collect alone (the edge lives in an object its minors
		// will not trace). Old→young stores need no flag — the
		// remembered set covers them shard-filtered.
		g.expose(v)
	}
}

// suspendAlloc parks a task at an allocation of n fields until the coming
// collection, marking the retry so fault injection skips it. byRgc is false
// when this allocation is the reason a collection is needed.
func (t *Task) suspendAlloc(n int, byRgc bool) {
	t.Status = SuspendedAlloc
	t.pendingAlloc = n
	t.allocRetry = true
	t.parkedByRgc = byRgc
}

// park suspends a task at the allocation the gate is judging. The attempt
// compared Rgc if that is where the policy compares it (an allocation that
// goes ahead is counted by settle instead).
func (g *Group) park(t *Task, n int, byRgc bool) bool {
	if g.Policy == SuspendAtAllocs {
		g.Stats.RgcChecks++
	}
	t.suspendAlloc(n, byRgc)
	return false
}

// alloc is the allocation gate: the allocating instruction at the task's pc
// needs k.need fields and the window is too short for them — the safe point
// where a collection can happen. The gate either grants a window (true: the
// instruction runs again and lays its object there) or suspends or faults
// the task (false: the instruction runs again when the task resumes).
//
// What must be judged per allocation is judged here, and holds for the whole
// window granted: a window is one object long when a budget is set, a fault
// plan is armed or the shared heap is opened with buffers armed (and where the
// heap needs it, heap.Window), so the next allocation comes back; otherwise it
// is the rest of its region, and nothing the gate checks can change before
// the slice ends — only an allocation that suspends its own task, which ends
// the slice, raises a wave.
func (g *Group) alloc(t *Task, k *sliceConsts) bool {
	n, one := k.need, false
	if g.BudgetSteps > 0 || g.BudgetAllocWords > 0 {
		// Allocation sites are the other safe point: fault the task before
		// the request touches the heap so an over-quota task cannot trigger
		// collections on its siblings' behalf.
		if g.spent(t, n) {
			g.faultTask(t, FaultBudget, n, g.overBudget(t, n))
			return false
		}
		one = true
	}
	sharded, tShard := g.sharded, t.shard
	if g.Policy == SuspendAtAllocs && (g.rgc != 0 || (sharded && g.rgcShard[tShard] != 0)) {
		// Another task exhausted the heap (or this task's shard has a
		// minor pending, or a concurrent cycle wants its pause); wait
		// here and retry this allocation after the wave.
		return g.park(t, n, true)
	}
	if f := g.Col.Faults; f != nil {
		one = true
		if !t.allocRetry {
			// Fault injection runs before the real allocation and rides the
			// same suspend/collect path a genuine exhaustion would, so injected
			// failures exercise the full ladder. allocRetry guards the
			// post-collection retry: without it, torture (and FailEvery=1)
			// would re-suspend the same allocation forever.
			if f.Torture {
				if g.rgc == 0 {
					g.Col.Telem.Resilience.TortureCollections++
				}
				g.rgc = 1
				return g.park(t, n, false)
			}
			// A RefillOnly plan targets the moment a TLAB chunk would be carved
			// from the shared heap; every other attempt passes through untouched.
			refill := g.TLABWords > 0 && g.Heap.TLABEligible(n) && !g.Heap.TLABRoom(&t.tlab, n)
			if f.FailAllocAt(refill) {
				g.Col.Telem.Resilience.InjectedOOMs++
				if g.rgc == 0 {
					g.Col.Telem.Resilience.EmergencyCollections++
				}
				g.rgc = 1
				t.allocEmergency = true
				return g.park(t, n, false)
			}
		}
	}
	// With buffers armed the shared heap takes only what no buffer can — an
	// oversize object, a failed carve — and one of it: the next object may fit
	// a buffer again.
	buffers := g.TLABWords > 0
	if !(buffers && g.openBuffered(&k.win, t, n, one)) && !g.Heap.OpenWindow(&k.win, n, one || buffers) {
		if sharded && g.rgc == 0 && g.rgcShard[tShard] == 0 &&
			!g.exposed[tShard] && g.Col.MinorEligible() && n <= g.Heap.YoungWords() {
			// A nursery-sized request failed in an unexposed, minor-eligible
			// shard: raise only that shard's wave. Its siblings in other
			// shards keep running while the shard collects alone;
			// serviceShardMinors escalates to the global ladder if the shard
			// minor is not enough.
			g.rgcShard[tShard] = 1
			return g.park(t, n, false)
		}
		// Exhaustion is the ladder's first rung: raise Rgc and suspend for
		// an emergency collection; collectSuspended climbs the rest (retry,
		// grow, fault — oomCause builds the typed error for the last).
		if g.rgc == 0 {
			g.Col.Telem.Resilience.EmergencyCollections++
		}
		g.rgc = 1
		t.allocEmergency = true
		return g.park(t, n, false)
	}
	if g.Heap.NurseryEnabled() && !g.Heap.InYoung(code.Word(code.HeapBase+k.win.HP)) {
		// Objects too large for the nursery are born old; their stores
		// never ran the write barrier, so force the next cycle major.
		g.Col.NoteTenuredAlloc()
	}
	return true
}

func (g *Group) builtin(t *Task, id code.BuiltinID, arg code.Word) {
	repr := g.Prog.Repr
	switch id {
	case code.BuiltinPrintInt:
		fmt.Fprintf(&t.Out, "%d", code.DecodeInt(repr, arg))
	case code.BuiltinPrintBool:
		fmt.Fprintf(&t.Out, "%t", code.DecodeBool(repr, arg))
	case code.BuiltinPrintString:
		t.Out.WriteString(g.Prog.Strings[code.DecodeInt(repr, arg)])
	case code.BuiltinPrintNewline:
		t.Out.WriteByte('\n')
	}
}

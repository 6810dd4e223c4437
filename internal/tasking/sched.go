// The scheduler and its waves: §4 of the paper on a page of its own.
//
//   - All tasks share one heap and the global roots; each has its own stack of
//     activation records. Run gives every unfinished task a quantum in turn.
//   - A task may be suspended for collection only when it makes a procedure
//     call or itself requests allocation — the safe-point discipline of the
//     sequential collector, and where its frames have maps.
//   - A register Rgc, normally zero, is conceptually added to every call's
//     target address: raised, it lands every task's next call in a suspension
//     stub (waved; SuspendedCall in dispatch.go's evCall, SuspendedAlloc in the
//     gate). The simulator compares Rgc at call dispatch and counts the checks.
//   - When every live task is suspended the wave has gathered (gathered): the
//     collector traces all stacks — a task stopped at a call contributes the
//     call's argument slots, not yet copied to a callee frame — and the tasks
//     resume (collectSuspended, resume): the triggering task retries its
//     allocation, the others re-execute their calls.
//
// Rgc is raised by the allocation gate on a full heap (gate.go) and by
// RequestMajor; a sharded heap adds a register and a wave per shard. The mode
// drivers are called from the lines of this file that their own files list.

package tasking

import (
	"errors"

	"tagfree/internal/code"
	"tagfree/internal/gc"
)

// waved is the safe-point predicate: whether a wave is up that this task must
// stop for — Rgc, or the register of the task's own shard. The dispatch loop
// asks it once per slice (only the instruction that ends a slice can raise a
// wave), the diverted call and the allocation gate when they are reached.
func (g *Group) waved(t *Task) bool {
	return g.rgc != 0 || (g.sharded && g.rgcShard[t.shard] != 0)
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
			if g.allSuspended() {
				g.collectSuspended()
			} else {
				g.rgc = 1
			}
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
				return false, errStepLimit
			}
		}
		if allDone {
			if external {
				// Open-loop mode: every admitted task finished but the
				// supervisor still expects arrivals. Let virtual time pass
				// so the next Tick can inject them.
				g.steps += int64(g.Quantum)
				if g.steps > g.MaxSteps {
					return false, errStepLimit
				}
				continue
			}
			return false, nil
		}
		g.serviceShardMinors()
		if g.rgc != 0 && g.allSuspended() {
			return true, nil
		}
		if !anyRan && g.rgc == 0 {
			return false, errors.New("tasking: deadlock: tasks suspended with no collection pending")
		}
	}
}

// errStepLimit ends a run whose virtual time has passed MaxSteps.
var errStepLimit = errors.New("tasking: step limit exceeded")

// loneQuanta is how many quanta a task that is alone on the run queue may
// run before the scheduler looks again.
const loneQuanta = 1 << 12

// slice is the instruction count of the next scheduling turn: one quantum,
// or — when exactly one task is unfinished and nothing can need the
// scheduler before that task suspends or finishes (no Tick hook to give
// virtual time to) — up to loneQuanta of them, cut to the first quantum boundary past MaxSteps.
// Called after compactRunQueue, so the queue holds unfinished tasks only;
// with two or more of them every turn is one quantum and the interleaving
// is untouched.
func (g *Group) slice() int {
	if len(g.runq) != 1 || g.Tick != nil {
		return g.Quantum
	}
	q := int64(g.Quantum)
	n := loneQuanta * q
	if left := g.MaxSteps - g.steps; left < n {
		n = (left/q + 1) * q
	}
	return int(n)
}

func (g *Group) allSuspended() bool {
	for _, t := range g.runq {
		if t.Status == Running {
			return false
		}
	}
	return true
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

// gathered notes that the wave has gathered — every task it had to stop has
// stopped: the instructions that took, over all tasks, are one sample of the
// suspend latency (experiment E7).
func (g *Group) gathered() {
	g.Stats.SuspendLatency = append(g.Stats.SuspendLatency, g.latency)
	g.latency = 0
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
		// major: old-region garbage reclaimed and the nursery emptied, so
		// shed decisions are judged against real headroom.
		g.forceMajor = false
		if g.Heap.NurseryEnabled() {
			g.fullCollect(live)
		}
	}
	g.gathered()
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
	resume(live)
}

// resume restarts the tasks a serviced wave had stopped — all but the ones
// that faulted while it was serviced. Each runs its call or its allocation
// again.
func resume(stopped []*Task) {
	for _, t := range stopped {
		if t.Status != Faulted {
			t.Status = Running
		}
	}
}

func (g *Group) collect(live []*Task) {
	g.Col.Collect(g.rootSet(live), g.Globals)
	g.collected()
	g.rgc = 0
	g.globalCollected()
}

// fullCollect forces a major collection (a rescue-ladder rung; the normal
// path goes through collect, which lets the collector pick minor/major).
func (g *Group) fullCollect(live []*Task) {
	g.Col.CollectFull(g.rootSet(live), g.Globals)
	g.collected()
	g.globalCollected()
}

// collected notes that a collection of any kind ran.
func (g *Group) collected() {
	g.Stats.Collections++
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

// Now returns the group's virtual time: the cumulative scheduler steps
// (whole quanta, including idle rounds) since the run began.
func (g *Group) Now() int64 { return g.steps }

// RequestMajor asks the next stop-the-world collection to escalate to a
// major after the normal cycle — the serve harness's "force major" overload
// rung. No-op between collections otherwise.
func (g *Group) RequestMajor() { g.forceMajor = true }

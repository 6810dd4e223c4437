package tasking

import (
	"fmt"

	"tagfree/internal/code"
)

// Windows for the external test package onto the scheduler's unexported
// state, and the reference scheduler the run queue is checked against.

// RunQueueIDs lists the run queue's task IDs in queue order.
func (g *Group) RunQueueIDs() []int {
	ids := make([]int, len(g.runq))
	for i, t := range g.runq {
		ids[i] = t.ID
	}
	return ids
}

// PooledStacks returns the length and the count of nonzero words of every
// stack waiting in the pool, bottom first.
func (g *Group) PooledStacks() (lens, nonzero []int) {
	for _, s := range g.stackPool {
		n := 0
		for _, w := range s {
			if w != 0 {
				n++
			}
		}
		lens = append(lens, len(s))
		nonzero = append(nonzero, n)
	}
	return lens, nonzero
}

// RunScanningAllTasks is Run with the scheduling loop the run queue
// replaced: every round ranges over every task the group ever spawned,
// nothing is compacted and no stack is recycled (so the run queue the
// collection helpers walk stays equal to Tasks). It exists only as the
// reference of the scheduler-order test.
func (g *Group) RunScanningAllTasks() error { return g.RunScanningAllTasksVisiting(nil) }

// RunScanningAllTasksVisiting is RunScanningAllTasks with visit, when not nil,
// called before every slice a task is given: at quantum 1, before every
// instruction it executes.
func (g *Group) RunScanningAllTasksVisiting(visit func(*Task)) error {
	for {
		pending, err := g.runUntilSuspendedScanningAll(visit)
		if err != nil || !pending {
			return err
		}
		g.collectSuspended()
	}
}

// Frame returns the task's pc, fp and sp.
func (t *Task) Frame() (pc, fp, sp int) { return t.pc, t.fp, t.sp }

// InRootFrame reports whether the task's frame is its root frame, whose return
// ends the task.
func (t *Task) InRootFrame() bool { return t.stack[t.fp+1] < 0 }

func (g *Group) runUntilSuspendedScanningAll(visit func(*Task)) (bool, error) {
	g.setupTLABs()
	g.setupShards()
	for {
		external := false
		if g.Tick != nil && g.rgc == 0 {
			external = g.Tick(g.steps)
		}
		if g.forceMajor && g.rgc == 0 {
			anyRunning := false
			for _, t := range g.Tasks {
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
		allDone := true
		anyRan := false
		for _, t := range g.Tasks {
			if t.Status == Done || t.Status == Faulted {
				continue
			}
			allDone = false
			if t.Status == SuspendedAlloc || t.Status == SuspendedCall {
				continue
			}
			anyRan = true
			if g.sharded {
				g.Heap.SetAllocShard(t.shard)
			}
			if visit != nil {
				visit(t)
			}
			if err := g.step(t, g.Quantum); err != nil {
				g.faultTask(t, FaultRuntime, 0, err)
				continue
			}
			if t.Status == Done {
				g.retireTaskTLAB(t)
			}
			g.steps += int64(g.Quantum)
			if g.steps > g.MaxSteps {
				return false, fmt.Errorf("tasking: step limit exceeded")
			}
		}
		if allDone {
			if external {
				g.steps += int64(g.Quantum)
				if g.steps > g.MaxSteps {
					return false, fmt.Errorf("tasking: step limit exceeded")
				}
				continue
			}
			return false, nil
		}
		if g.sharded {
			g.serviceShardMinors()
		}
		if g.rgc != 0 && g.allSuspended() {
			return true, nil
		}
		if !anyRan && g.rgc == 0 {
			return false, fmt.Errorf("tasking: deadlock: tasks suspended with no collection pending")
		}
	}
}

// GateVisits returns how many allocations the dispatch loop has left to the
// gate: each found its window too short.
func (g *Group) GateVisits() int64 { return g.gates }

// Step runs one instruction slice of t, as a scheduling turn does.
func (g *Group) Step(t *Task, quantum int) error { return g.step(t, quantum) }

// CollectSuspended collects with every task stopped and resumes them, as Run
// does between two calls of the scheduling loop.
func (g *Group) CollectSuspended() { g.collectSuspended() }

// Registers returns Rgc followed by every shard's register: what is nonzero
// while a suspend wave is up.
func (g *Group) Registers() []code.Word {
	return append([]code.Word{g.rgc}, g.rgcShard...)
}

package gc

import (
	"fmt"

	"tagfree/internal/code"
)

// Root source: the one place a stack is resolved into roots.
//
// taskJobs is the one function that resolves a stack: it follows the dynamic
// chain, reads each frame's gc_word, threads type_gc routines oldest→newest
// and lists the task's roots — a slot, its routine and kernel — in trace
// order. applyJobs traces such a list through a tracer: a collection resolves
// each task into the scratch arena, which it resets once, and applies the
// task's list before resolving the next. The lists stay in the arena until
// the next collection, so the verifier holds the very jobs the collection
// traced to the paper's recursive resolver (reference.go), which shares none
// of this code. Resolving first is order-equivalent to tracing frame by frame
// because resolution reads only the program, the stopped stack's links and
// un-moved heap words: forwarding lives in a side table, so a from-space
// object (a closure's rep words) reads the same before and after it is copied.

// pkg is the type information a frame's gc routine hands to its callee's:
// resolved type arguments for direct calls, or the closure's structured
// type_gc_routine for closure calls (Figure 4).
type pkg struct {
	direct []TypeGC
	arrow  TypeGC
}

// rootJob is one resolved root: a stack slot and the routine and kernel
// tracing it.
type rootJob struct {
	idx int // absolute index into the task's stack
	routine
}

// genericJob is a root traced by full dispatch (every strategy but the
// planned compiled one).
func genericJob(idx int, g TypeGC) rootJob { return rootJob{idx: idx, routine: routine{g: g}} }

// taskJobs resolves one task's complete root set, oldest frame first, without
// mutating the heap or the stack — §3's "the stack is traversed at most
// twice": one pass to gather the frames (walk), one to hand type packages from
// frame to frame. Resolution counters land in c.Stats. The returned slice
// lives in the arena, valid until the arena's next reset.
func (c *Collector) taskJobs(t TaskRoots) []rootJob {
	sc := &c.sc
	fr := sc.walk(t)
	fast := c.planned()
	jobs, first := sc.jobs, len(sc.jobs)
	var incoming pkg
	var ic planIC
	var prev *framePlan
	for i := len(fr) - 1; i >= 0; i-- {
		fp := fr[i].fp
		base, atCall := fp+2, t.AtCall && i == 0
		siteIdx, site := c.siteAtFast(fr[i].pc)
		fi := c.Prog.Funcs[site.Func]
		if fast {
			// Compiled fast path: the memoized plan already carries the
			// resolved slot routines, kernels, the deduplicated argument
			// map and the outgoing package, and the caller plan's edge
			// cache resolves warmed towers in O(1) per frame (fastpath.go).
			plan := c.planForEdge(prev, &ic, siteIdx, site, fi, incoming, t.Stack, fp)
			for k := range plan.slots {
				jobs = append(jobs, plan.slots[k].job(base))
			}
			if atCall {
				for k := range plan.args {
					jobs = append(jobs, plan.args[k].job(base))
				}
			}
			incoming, prev = plan.out, plan
			continue
		}
		if c.Strat == StratAppel {
			// The chain re-walk's windows die with this frame's routines.
			mark := len(sc.targs)
			jobs = c.frameJobs(jobs, siteIdx, site, fi, base, c.appelTypeArgs(t, fr, i), atCall)
			if mark < len(sc.targs) {
				sc.targs = sc.targs[:mark]
			}
			continue
		}
		targs := c.frameTypeArgs(fi, incoming, t.Stack, fp)
		jobs = c.frameJobs(jobs, siteIdx, site, fi, base, targs, atCall)
		if i > 0 {
			incoming = c.outgoing(site, targs, sc)
		}
	}
	c.Stats.FramesTraced += int64(len(fr))
	sc.jobs = jobs
	return jobs[first:]
}

// frameJobs appends the roots of one frame (slots from base) under the
// unplanned strategies, interp and Appel, in slot order.
func (c *Collector) frameJobs(jobs []rootJob, siteIdx int, site *code.SiteInfo, fi *code.FuncInfo, base int, targs []TypeGC, atCall bool) []rootJob {
	start := len(jobs)
	if c.Strat == StratInterp {
		jobs = c.interpFrameJobs(jobs, c.interpSites[siteIdx], base, targs)
	} else {
		for _, e := range fi.AllSlots {
			jobs = append(jobs, genericJob(base+e.Slot, c.FromDesc(e.Desc, targs)))
		}
	}
	if atCall {
		// A task suspended before executing a call still owns the call's
		// argument values in its own slots; they are roots through the
		// site's argument map (tasking, §4). A slot the frame's own map
		// already covers is listed once only: a second trace of it would
		// dereference the to-space pointer the first one wrote there (Appel
		// mode hits this: AllSlots ignores liveness and so covers the staged
		// arguments).
		var seen slotSet
		for _, j := range jobs[start:] {
			seen.add(j.idx - base)
		}
		for _, e := range site.Args {
			if !seen.has(e.Slot) {
				jobs = append(jobs, genericJob(base+e.Slot, c.FromDesc(e.Desc, targs)))
			}
		}
	}
	return jobs
}

// frame is one activation record of a stack walk: its base and the pc it is
// blocked at.
type frame struct{ fp, pc int }

// walk is the one function that follows a stack's dynamic links — the
// paper's initial pointer-reversal traversal, realized as an index pass. It
// lists the task's frames newest first into the arena; every consumer reads
// the list from the far end, which is the oldest→newest order a trace needs,
// so nothing is reversed and nothing is copied. One newest→oldest pass is
// enough to learn every pc: a frame is blocked at the return address stored
// in the record above it (the task's own pc for the newest), and that record
// was visited just before. The list is valid until the arena's next walk.
func (s *scratch) walk(t TaskRoots) []frame {
	fr, pc := s.frames[:0], t.PC
	for fp := t.FP; fp >= 0; fp = int(t.Stack[fp]) {
		fr = append(fr, frame{fp, pc})
		pc = int(t.Stack[fp+1])
	}
	s.frames = fr
	return fr
}

// siteAt reads the gc_word embedded next to the call/alloc instruction at
// pc — the Figure 1 lookup.
func (c *Collector) siteAt(pc int) (int, *code.SiteInfo) {
	op := c.Prog.Code[pc]
	off := code.GCWordOffset(op)
	if off < 0 {
		panic(fmt.Sprintf("gc: no gc_word at pc %d (op %s)", pc, code.OpName(op)))
	}
	gcw := c.Prog.Code[pc+off]
	if gcw < 0 {
		panic(fmt.Sprintf("gc: collection at elided gc_word (pc %d)", pc))
	}
	return int(gcw), c.Prog.Sites[gcw]
}

// frameTypeArgs resolves a frame's type environment. Windows come from the
// scratch arena, valid until its next reset.
func (c *Collector) frameTypeArgs(fi *code.FuncInfo, incoming pkg, stack []code.Word, fp int) []TypeGC {
	switch fi.TypeSource {
	case code.TypeSourceCallSite:
		return incoming.direct
	case code.TypeSourceEnv:
		// Slot 0 is the closure being executed.
		return c.envTypeArgs(fi, stack[fp+2], incoming.arrow)
	}
	return nil
}

// envTypeArgs derives a closure-called frame's type arguments from the
// call-site package (derivable entries) and the closure's rep words.
func (c *Collector) envTypeArgs(fi *code.FuncInfo, clos code.Word, ref TypeGC) []TypeGC {
	targs := c.sc.typeArgs(fi.TypeEnvLen)
	for i := 0; i < fi.TypeEnvLen; i++ {
		switch {
		case fi.RepWord != nil && fi.RepWord[i] >= 0 && code.IsBoxedValue(c.Heap.Repr, clos):
			h := int(code.DecodeInt(c.Heap.Repr, c.Heap.Field(clos, 1+fi.RepWord[i])))
			targs[i] = c.FromRep(h)
		case fi.Derivs != nil && fi.Derivs[i] != nil && ref != nil:
			targs[i] = ApplyPath(ref, fi.Derivs[i])
		default:
			targs[i] = c.b.Const()
		}
	}
	return targs
}

// outgoing builds the package this frame's routine passes to its callee's,
// in sc's arena (nil: on the host heap, for a plan to keep).
func (c *Collector) outgoing(site *code.SiteInfo, targs []TypeGC, sc *scratch) pkg {
	switch site.Kind {
	case code.SiteCall:
		out := sc.typeArgs(len(site.CalleeInst))
		for i, d := range site.CalleeInst {
			out[i] = c.FromDesc(d, targs)
		}
		return pkg{direct: out}
	case code.SiteCallC:
		return pkg{arrow: c.FromDesc(site.SiteType, targs)}
	}
	return pkg{}
}

// appelTypeArgs resolves the type arguments of frame target (an index into
// fr, newest first) by walking the dynamic chain from the bottom every time —
// "the tracing of each polymorphic function's activation record may involve
// traversing a fair amount of the stack" (§1.1.1/§3). The work is O(depth)
// per frame, O(n²) per collection, counted in ChainSteps.
func (c *Collector) appelTypeArgs(t TaskRoots, fr []frame, target int) []TypeGC {
	var incoming pkg
	for j := len(fr) - 1; j >= target; j-- {
		_, site := c.siteAtFast(fr[j].pc)
		fi := c.Prog.Funcs[site.Func]
		targs := c.frameTypeArgs(fi, incoming, t.Stack, fr[j].fp)
		c.Stats.ChainSteps++
		if j == target {
			return targs
		}
		incoming = c.outgoing(site, targs, &c.sc)
	}
	return nil
}

// applyJobs traces one task's resolved roots, in order.
func (c *Collector) applyJobs(stack []code.Word, jobs []rootJob) {
	for i := range jobs {
		j := &jobs[i]
		c.Stats.SlotsTraced++
		w := stack[j.idx]
		if nw := c.own.kernel(&j.routine, w); nw != w {
			stack[j.idx] = nw
		}
	}
}

// ResolveRoots resolves every task's complete root set — frame chains,
// gc_word lookups, type-argument resolution, plan construction — without
// mutating the heap, the stacks or the collector's counters. It is the
// pure metadata half of a collection, exported so the repository benchmark
// (benchmark/layers.go) can time resolution apart from tracing. It
// returns the number of roots resolved. Tagged collections have no
// resolution phase (the scan is header-driven) and return 0.
func (c *Collector) ResolveRoots(tasks []TaskRoots) int {
	if c.Strat == StratTagged {
		return 0
	}
	// The benchmark calls this in a tight loop outside any collection; reset
	// the arena each time so repeated resolution does not accumulate.
	c.sc.reset()
	saved := c.Stats
	total := 0
	for i := range tasks {
		total += len(c.taskJobs(tasks[i]))
	}
	c.Stats = saved
	return total
}

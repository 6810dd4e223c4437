package gc

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tagfree/internal/code"
	"tagfree/internal/heap"
)

// Parallel collection (the §4 tasking extension on multi-core hardware).
//
// A frame routine is pure over compiler metadata: resolving a frame's site,
// type arguments and slot routines reads only the program, the (stopped)
// stacks and un-moved heap words. Only heap mutation needs coordination —
// forwarding in copying mode, mark bits in mark/sweep mode. The two
// disciplines therefore parallelize differently:
//
//   - Copying: workers resolve every task's root set into job lists
//     concurrently (phase 1: frame chains, gc_word lookups, type-argument
//     resolution — including Appel mode's O(n²) chain re-walks — and
//     descriptor decoding), then one goroutine applies the traces in task
//     order (phase 2). Tracing order equals the sequential collector's
//     exactly, so to-space layout is bit-identical to the oracle.
//   - Mark/sweep: objects never move and marking is idempotent, so workers
//     mark concurrently, claiming objects with an atomic compare-and-swap
//     (heap.VisitShared). Nothing writes heap words, and the serial sweep
//     rebuilds free lists deterministically, so the final heap is
//     bit-identical regardless of scan order.
//
// Workers keep local Stats merged in task order after the join; totals are
// deterministic either way. The only nondeterminism the parallel path
// admits is mark/sweep per-task attribution of structure shared between
// tasks (whichever worker's CAS wins owns the words) — totals still agree.

// rootJob is one resolved root: a stack slot, the routine tracing it, and
// the specialized kernel chosen for it at plan-build time (kGeneric when
// the fast path is off or the shape needs full dispatch).
type rootJob struct {
	idx   int // absolute index into the task's stack
	g     TypeGC
	k     kernel
	spine *spineKernel
	box   *boxKernel
}

// planJob converts a resolved plan slot into a root job. Pruning kernels
// are deliberately not carried over: the parallel paths never prune
// (beginPrune refuses them), so jobs always trace in full.
func planJob(base int, ps *planSlot) rootJob {
	return rootJob{idx: base + ps.slot, g: ps.g, k: ps.k, spine: ps.spine, box: ps.box}
}

// traceJob traces one resolved root on the ordered phase-2 path, through
// its kernel when one was selected.
func (c *Collector) traceJob(j *rootJob, w code.Word) code.Word {
	if j.k == kGeneric {
		return j.g.Trace(c, w)
	}
	ps := planSlot{g: j.g, k: j.k, spine: j.spine, box: j.box}
	return c.traceKernel(&ps, w, &c.Stats)
}

// collectParallel scans all task stacks with c.Parallelism workers.
// Globals were already traced serially by Collect (the mark path needs
// them again — with the marked-word baseline markedAtStart — to rebuild
// state discarded after a watchdog abort). It returns false when the
// watchdog aborted the parallel scan and the sequential fallback finished
// the collection instead.
func (c *Collector) collectParallel(tasks []TaskRoots, scans []TaskScan, globals []code.Word, markedAtStart int64) bool {
	if c.Heap.Kind() == heap.MarkSweep {
		return c.collectParallelMark(tasks, scans, globals, markedAtStart)
	}
	return c.collectParallelCopy(tasks, scans)
}

// scanOrder returns the order workers claim task stacks in: identity, or a
// seeded shuffle when ScanSeed is set (order-independence tests).
func (c *Collector) scanOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if c.ScanSeed != 0 {
		rng := rand.New(rand.NewSource(c.ScanSeed))
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	return order
}

// runWorkers fans scan over the task indexes with min(Parallelism, n)
// goroutines pulling from a shared atomic cursor; scan receives the worker
// index (for per-worker scratch arenas) and the claimed task index. It
// returns false when
// the fault plan's watchdog expired before the workers finished: stacks
// not yet claimed are skipped, in-flight scans run to completion (a scan
// cannot be interrupted mid-object safely), and the caller must discard
// the partial work and fall back to the sequential path.
func (c *Collector) runWorkers(n int, scan func(worker, i int)) bool {
	order := c.scanOrder(n)
	workers := c.Parallelism
	if workers > n {
		workers = n
	}
	var delay time.Duration
	var watchdog <-chan time.Time
	if c.Faults != nil {
		delay = c.Faults.WorkerDelay
		if c.Faults.Watchdog > 0 {
			timer := time.NewTimer(c.Faults.Watchdog)
			defer timer.Stop()
			watchdog = timer.C
		}
	}
	var aborted atomic.Bool
	var cursor int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if aborted.Load() {
					return
				}
				k := atomic.AddInt64(&cursor, 1)
				if k >= int64(n) {
					return
				}
				if delay > 0 {
					time.Sleep(delay)
					if aborted.Load() {
						return // stalled past the watchdog: skip the claimed stack
					}
				}
				scan(worker, order[k])
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-watchdog:
		aborted.Store(true)
		<-done // join in-flight scans before touching shared state
		c.Telem.Resilience.WatchdogTrips++
		return false
	}
}

// mergeStats folds a worker's local counters into the collector's.
func mergeStats(into, from *Stats) {
	into.FramesTraced += from.FramesTraced
	into.SlotsTraced += from.SlotsTraced
	into.ObjectsCopied += from.ObjectsCopied
	into.DescBytesDecoded += from.DescBytesDecoded
	into.ChainSteps += from.ChainSteps
	into.WordsScanned += from.WordsScanned
	into.PlanHits += from.PlanHits
	into.PlanMisses += from.PlanMisses
	into.SiteCacheHits += from.SiteCacheHits
	into.SiteCacheMisses += from.SiteCacheMisses
	into.KernelWords += from.KernelWords
}

// ---------------------------------------------------------------------------
// Copying: parallel resolution, ordered tracing.
// ---------------------------------------------------------------------------

func (c *Collector) collectParallelCopy(tasks []TaskRoots, scans []TaskScan) bool {
	jobLists := make([][]rootJob, len(tasks))
	local := make([]Stats, len(tasks))
	if !c.runWorkers(len(tasks), func(w, i int) {
		jobLists[i] = c.taskJobs(tasks[i], &local[i], c.scratches[w])
	}) {
		// Watchdog abort. Phase 1 only read the stopped stacks and built
		// job lists; no heap or stack word was written, so the fallback can
		// simply discard them and run the sequential oracle.
		c.serialFallback(tasks, scans)
		return false
	}
	for i := range tasks {
		mergeStats(&c.Stats, &local[i])
		wordsBefore := c.Heap.Stats.WordsCopied
		objBefore := c.Stats.ObjectsCopied
		for j := range jobLists[i] {
			job := &jobLists[i][j]
			tasks[i].Stack[job.idx] = c.traceJob(job, tasks[i].Stack[job.idx])
			c.Stats.SlotsTraced++
		}
		scans[i] = TaskScan{
			Task:    i,
			Frames:  local[i].FramesTraced,
			Slots:   int64(len(jobLists[i])),
			Objects: c.Stats.ObjectsCopied - objBefore,
			Words:   c.Heap.Stats.WordsCopied - wordsBefore,
		}
	}
	return true
}

// serialFallback finishes an aborted parallel collection on the sequential
// path, producing the same heap the oracle would have.
func (c *Collector) serialFallback(tasks []TaskRoots, scans []TaskScan) {
	c.Telem.Resilience.SerialFallbacks++
	c.collectSerial(tasks, scans)
}

// ResolveRoots resolves every task's complete root set — frame chains,
// gc_word lookups, type-argument resolution, plan construction — without
// mutating the heap, the stacks or the collector's counters. It is the
// pure metadata half of a collection, exported so the benchmark harness
// (experiment E10) can time resolution separately from tracing. It
// returns the number of roots resolved. Tagged collections have no
// resolution phase (the scan is header-driven) and return 0.
func (c *Collector) ResolveRoots(tasks []TaskRoots) int {
	if c.Strat == StratTagged {
		return 0
	}
	c.prepareFastPath()
	// E10 calls this in a tight loop outside any collection; reset the
	// arena each time so repeated resolution does not accumulate.
	sc := c.scratch0()
	sc.reset()
	var st Stats
	total := 0
	for i := range tasks {
		total += len(c.taskJobs(tasks[i], &st, sc))
	}
	return total
}

// taskJobs resolves one task's complete root set without mutating the
// heap: the job list mirrors collectTask's trace order slot for slot. The
// returned slice lives in sc's arena, valid until the arena's next reset
// (the top of the next collection).
func (c *Collector) taskJobs(t TaskRoots, st *Stats, sc *scratch) []rootJob {
	fr := sc.walk(t)
	fast := c.planned()
	jobs := sc.jobsWindow()
	var incoming pkg
	var ic planIC
	var prev *framePlan
	for i := len(fr) - 1; i >= 0; i-- {
		fp := fr[i].fp
		siteIdx, site := c.siteAtFast(fr[i].pc, st)
		fi := c.Prog.Funcs[site.Func]
		if fast {
			// Compiled fast path: the memoized plan already carries the
			// resolved slot routines, kernels, the deduplicated argument
			// map and the outgoing package, and the caller plan's edge
			// cache resolves warmed towers in O(1) per frame (fastpath.go).
			plan := c.planForEdge(prev, &ic, siteIdx, site, fi, incoming, t.Stack, fp, sc, st)
			base := fp + 2
			for k := range plan.slots {
				jobs = append(jobs, planJob(base, &plan.slots[k]))
			}
			if t.AtCall && i == 0 {
				for k := range plan.args {
					jobs = append(jobs, planJob(base, &plan.args[k]))
				}
			}
			incoming, prev = plan.out, plan
			continue
		}
		var targs []TypeGC
		if c.Strat == StratAppel {
			targs = c.appelTypeArgs(t, fr, i, st, sc)
		} else {
			targs = c.frameTypeArgs(fi, incoming, t.Stack, fp, sc)
		}
		jobs = c.frameJobs(jobs, siteIdx, site, fi, fp, targs, t.AtCall && i == 0, st)
		if i > 0 && c.Strat != StratAppel {
			incoming = c.outgoing(site, targs)
		}
	}
	st.FramesTraced += int64(len(fr))
	sc.commitJobs(jobs)
	return jobs
}

// frameJobs appends one frame's root jobs in traceFrame's slot order.
func (c *Collector) frameJobs(jobs []rootJob, siteIdx int, site *code.SiteInfo, fi *code.FuncInfo, fp int, targs []TypeGC, atCall bool, st *Stats) []rootJob {
	base := fp + 2
	start := len(jobs)
	switch c.Strat {
	case StratCompiled:
		for _, tr := range c.compiledSites[siteIdx] {
			g := tr.ground
			if g == nil {
				g = c.FromDesc(tr.desc, targs)
			}
			jobs = append(jobs, rootJob{idx: base + tr.slot, g: g})
		}
	case StratInterp:
		jobs = c.interpFrameJobs(jobs, c.interpSites[siteIdx], base, targs, st)
	case StratAppel:
		for _, e := range fi.AllSlots {
			jobs = append(jobs, rootJob{idx: base + e.Slot, g: c.FromDesc(e.Desc, targs)})
		}
	}
	if atCall {
		// Mirror traceFrame's dedupe: a slot covered by both the frame walk
		// and the site's argument map is traced once only.
		var seen slotSet
		for _, j := range jobs[start:] {
			seen.add(j.idx - base)
		}
		for _, e := range site.Args {
			if seen.has(e.Slot) {
				continue
			}
			jobs = append(jobs, rootJob{idx: base + e.Slot, g: c.FromDesc(e.Desc, targs)})
		}
	}
	return jobs
}

// ---------------------------------------------------------------------------
// Mark/sweep: fully parallel marking.
// ---------------------------------------------------------------------------

func (c *Collector) collectParallelMark(tasks []TaskRoots, scans []TaskScan, globals []code.Word, markedAtStart int64) bool {
	local := make([]Stats, len(tasks))
	words := make([]int64, len(tasks))
	if !c.runWorkers(len(tasks), func(w, i int) {
		st := &local[i]
		jobs := c.taskJobs(tasks[i], st, c.scratches[w])
		for j := range jobs {
			job := &jobs[j]
			if job.k != kGeneric {
				ps := planSlot{g: job.g, k: job.k, spine: job.spine, box: job.box}
				words[i] += c.markKernel(&ps, tasks[i].Stack[job.idx], st)
			} else {
				words[i] += c.markValue(job.g, tasks[i].Stack[job.idx], st)
			}
			st.SlotsTraced++
		}
	}) {
		// Watchdog abort. Marking wrote mark bits and bumped the marked-word
		// counter but never moved an object or wrote a heap/stack word:
		// clear every mark (including the globals'), roll the counter back
		// to the top of the collection, and re-mark sequentially.
		c.Heap.ResetMarks()
		c.Heap.Stats.WordsCopied = markedAtStart
		c.traceGlobals(globals)
		c.serialFallback(tasks, scans)
		return false
	}
	for i := range tasks {
		mergeStats(&c.Stats, &local[i])
		scans[i] = TaskScan{
			Task:    i,
			Frames:  local[i].FramesTraced,
			Slots:   local[i].SlotsTraced,
			Objects: local[i].ObjectsCopied,
			Words:   words[i],
		}
	}
	return true
}

// markValue marks the structure reachable from one root without writing a
// single heap or stack word — the read-only twin of TypeGC.Trace for
// mark/sweep heaps (objects never move, so there is nothing to forward).
// It returns the words newly marked, for per-task telemetry. First visits
// are claimed through heap.VisitShared's compare-and-swap, making the walk
// safe for any number of concurrent workers. A spine (shape.tail) iterates,
// so long lists do not consume host stack proportional to their length.
func (c *Collector) markValue(g TypeGC, w code.Word, st *Stats) int64 {
	var words int64
	for {
		sh, ok := c.shapeOf(g, w)
		if !ok {
			return words
		}
		if _, fresh := c.Heap.VisitShared(w, sh.size()); !fresh {
			return words
		}
		st.ObjectsCopied++
		words += int64(sh.size())
		for i, f := range sh.fields {
			if i != sh.tail {
				words += c.markValue(f, c.Heap.Field(w, sh.off+i), st)
			}
		}
		if sh.tail < 0 {
			return words
		}
		w = c.Heap.Field(w, sh.off+sh.tail)
	}
}

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
// Root resolution (roots.go) is pure, so it is what workers share out. Only
// heap mutation needs coordination — forwarding in copying mode, mark bits in
// mark/sweep mode — and the two disciplines parallelize differently:
//
//   - Copying: workers resolve every task's job list concurrently (phase 1:
//     frame chains, gc_word lookups, type-argument resolution — including
//     Appel mode's O(n²) chain re-walks — and descriptor decoding), then one
//     goroutine applies the lists in task order (phase 2). Tracing order
//     equals the sequential collector's exactly, so to-space layout is
//     bit-identical to the oracle.
//   - Mark/sweep: objects never move and marking is idempotent, so each
//     worker applies the list it resolved, through a tracer that claims
//     objects with an atomic compare-and-swap (heap.VisitShared). A traced
//     word equals the word it replaces, so nothing is stored, and the serial
//     sweep rebuilds free lists deterministically: the final heap is
//     bit-identical regardless of scan order.
//
// Workers count into local Stats merged in task order after the join; totals
// are deterministic either way. The only nondeterminism the parallel path
// admits is mark/sweep per-task attribution of structure shared between
// tasks (whichever worker's CAS wins owns the words) — totals still agree.
// Workers never prune: beginPrune refuses a fanned-out collection, so the
// pruning kernels their jobs carry are ignored.

// taskScan is one task's share of a collection: what the counters moved
// since then, and the heap words its roots claimed.
func taskScan(task int, now, then *Stats, words int64) TaskScan {
	return TaskScan{
		Task:    task,
		Frames:  now.FramesTraced - then.FramesTraced,
		Slots:   now.SlotsTraced - then.SlotsTraced,
		Objects: now.ObjectsCopied - then.ObjectsCopied,
		Words:   words,
	}
}

// collectParallel scans all task stacks with c.Parallelism workers. Globals
// were already traced serially by cycle (the mark path needs them again —
// with the marked-word baseline markedAtStart — to rebuild state discarded
// after a watchdog abort). It returns false when the watchdog aborted the
// parallel scan and the sequential path finished the collection instead.
func (c *Collector) collectParallel(tasks []TaskRoots, scans []TaskScan, globals []code.Word, markedAtStart int64) bool {
	marking := c.Heap.Kind() == heap.MarkSweep
	jobLists := make([][]rootJob, len(tasks))
	local := make([]Stats, len(tasks))
	words := make([]int64, len(tasks))
	for w := 0; w < c.Parallelism; w++ {
		c.arena(w).reset()
	}
	if !c.runWorkers(len(tasks), func(w, i int) {
		sc := c.scratches[w]
		jobs := c.taskJobs(tasks[i], &local[i], sc)
		if !marking {
			jobLists[i] = jobs // applied in task order after the join
			return
		}
		tr := tracer{c: c, st: &local[i], shared: true}
		tr.begin()
		c.applyJobs(&tr, tasks[i].Stack, jobs)
		words[i] = tr.claim.Won()
		sc.reset()
	}) {
		// Watchdog abort. Resolution only read the stopped stacks, and
		// marking wrote mark bits and the marked-word counter but no heap or
		// stack word: clear every mark (the globals' too), roll the counter
		// back to the top of the collection, re-mark the globals, and run the
		// sequential oracle over whatever the workers left.
		if marking {
			c.Heap.ResetMarks()
			c.Heap.Stats.WordsCopied = markedAtStart
			c.traceGlobals(globals)
		}
		c.Telem.Resilience.SerialFallbacks++
		c.collectSerial(tasks, scans)
		return false
	}
	for i := range tasks {
		snap, before := c.Stats, c.Heap.Stats.WordsCopied
		mergeStats(&c.Stats, &local[i])
		if !marking {
			c.applyJobs(&c.own, tasks[i].Stack, jobLists[i])
			words[i] = c.Heap.Stats.WordsCopied - before
		}
		scans[i] = taskScan(i, &c.Stats, &snap, words[i])
	}
	return true
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

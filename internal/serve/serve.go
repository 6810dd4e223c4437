// Package serve is the overload-resilience harness: an open-loop
// request generator over the tasking runtime. Requests arrive on a fixed
// virtual-time schedule (arrival period, burst size, heavy-tail service
// mix over a workload's entry functions), pass through a bounded
// admission queue, and run as tasks of one shared-heap group. When demand
// exceeds capacity the harness degrades instead of failing globally:
//
//	rung 1 — shed new arrivals when the queue is full or heap occupancy
//	         crosses the watermark; shed clients retry with capped
//	         exponential backoff plus deterministic jitter;
//	rung 2 — on an occupancy shed, request a major collection
//	         from the group (consumed at the next stop-the-world cycle);
//	rung 3 — cancel admitted requests that outlive their deadline with a
//	         BudgetExceeded task fault (per-task step and allocation-word
//	         budgets in pipeline.Options compose with this).
//
// All scheduling and latency accounting is in virtual time (scheduler
// steps), so a run is bit-for-bit deterministic for a given seed; wall
// time appears only in throughput reporting. A closed set of tasks started
// together, the paper's §4, is pipeline.RunTasks (tfgc tasks), not a mode of
// this harness.
package serve

import (
	pq "container/heap"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tagfree/internal/code"
	"tagfree/internal/heap"
	"tagfree/internal/pipeline"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// MixEntry weights one service class of the mix.
type MixEntry struct {
	Entry  string
	Weight int
}

// Config describes one serve run.
type Config struct {
	// Workload supplies the program, its entry functions, and their
	// expected results. Every Mix entry must name one of its Entries.
	Workload workloads.TaskWorkload
	// Mix is the weighted service-class mix requests sample from. Empty
	// means uniform over the workload's entries.
	Mix []MixEntry
	// Opts carries the heap/strategy/budget knobs (HeapWords, MarkSweep,
	// NurseryWords, TLABWords, BudgetSteps, BudgetAllocWords, faults...).
	Opts pipeline.Options

	// Open-loop arrival schedule, in virtual-time steps: Burst requests
	// arrive every Period steps until Requests have been issued. Both are
	// required.
	Period   int64
	Burst    int
	Requests int
	// Seed drives mix sampling and retry jitter (deterministic PRNG).
	Seed int64

	// Admission control (rung 1). QueueDepth bounds the admission queue
	// (default 16); MaxInflight bounds concurrently running requests
	// (default 8); ShedHeapPct > 0 sheds arrivals while heap occupancy is
	// at or above this percentage of the semispace.
	QueueDepth  int
	MaxInflight int
	ShedHeapPct int

	// Client retry policy for shed requests: up to MaxRetries attempts,
	// backoff doubling from Backoff up to BackoffCap, plus jitter in
	// [0, backoff/2]. Backoff defaults to Period.
	MaxRetries int
	Backoff    int64
	BackoffCap int64

	// Deadline > 0 cancels an admitted request still running after this
	// many steps (rung 3); the task faults with BudgetExceeded.
	Deadline int64
}

// Stats are the harness counters; every issued request resolves into
// exactly one of Completed, Dropped, Canceled, or Faulted.
type Stats struct {
	Requests     int64 `json:"requests"`
	Arrivals     int64 `json:"arrivals"` // admission attempts incl. retries
	Admitted     int64 `json:"admitted"`
	Completed    int64 `json:"completed"`
	Shed         int64 `json:"shed,omitempty"`      // shed events (queue or heap watermark)
	ShedHeap     int64 `json:"shed_heap,omitempty"` // the subset shed on heap occupancy
	Retries      int64 `json:"retries,omitempty"`   // sheds that rescheduled
	Dropped      int64 `json:"dropped,omitempty"`   // gave up after MaxRetries
	Canceled     int64 `json:"canceled,omitempty"`  // deadline cancellations (rung 3)
	Faulted      int64 `json:"faulted,omitempty"`   // other task faults (OOM ladder, budgets, runtime)
	WrongResults int64 `json:"wrong_results,omitempty"`
	ForcedMajors int64 `json:"forced_majors,omitempty"` // rung-2 escalations
}

// Result is one finished serve run.
type Result struct {
	Stats Stats
	// Latencies holds one sample per completed request: completion step
	// minus first-arrival step (queueing, retries, and collection pauses
	// included), ascending-sorted.
	Latencies []int64
	// Steps is the final virtual time; WallNS the wall-clock run time.
	Steps  int64
	WallNS int64
	// Group exposes the finished task group (telemetry, heap, task
	// registry) for tests and reporting.
	Group *tasking.Group
}

// request is one client request's lifecycle.
type request struct {
	id       int
	entry    string
	fidx     int
	expect   int64
	arriveAt int64 // next arrival or retry time
	first    int64 // first arrival (latency epoch)
	attempts int   // shed count so far
	admitted int64
	task     *tasking.Task
	canceled bool
}

// arrivals is a min-heap (container/heap) of requests ordered by
// (arriveAt, id): the deterministic order in which requests due at the same
// tick are judged.
type arrivals []*request

func (a arrivals) Len() int { return len(a) }
func (a arrivals) Less(i, j int) bool {
	if a[i].arriveAt != a[j].arriveAt {
		return a[i].arriveAt < a[j].arriveAt
	}
	return a[i].id < a[j].id
}
func (a arrivals) Swap(i, j int) { a[i], a[j] = a[j], a[i] }
func (a *arrivals) Push(x any)   { *a = append(*a, x.(*request)) }
func (a *arrivals) Pop() any {
	h := *a
	r := h[len(h)-1]
	h[len(h)-1] = nil
	*a = h[:len(h)-1]
	return r
}

// fifo is the bounded admission queue: a ring over QueueDepth slots, so an
// admitted request is not kept reachable from the queue's storage.
type fifo struct {
	buf     []*request
	head, n int
}

func (q *fifo) push(r *request) {
	q.buf[(q.head+q.n)%len(q.buf)] = r
	q.n++
}

func (q *fifo) pop() *request {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return r
}

// driver holds the run state threaded through the Tick hook.
type driver struct {
	cfg         Config
	g           *tasking.Group
	rng         *rand.Rand
	waiting     arrivals // issued, not yet admitted (future arrivals + backoffs)
	queue       fifo     // admitted, waiting for a server
	inflight    []*request
	resolved    int
	total       int
	stats       *Stats
	lats        []int64
	majorReq    bool // rung-2 latch, cleared when occupancy drops
	seenRecords int  // telemetry records consumed by peakUsed
}

// Run executes the configured serve run.
func Run(cfg Config) (*Result, error) {
	// The front ends range-check what they are given; a Go caller gets the
	// part of that which no run survives: a negative bound never admits a
	// request (the run would not end), a watermark above 100 never sheds.
	if err := pipeline.RefuseNegative(&cfg); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.Period == 0 {
		return nil, errors.New("serve: no arrival period: a closed set of tasks runs through pipeline.RunTasks (tfgc tasks)")
	}
	if cfg.ShedHeapPct > 100 {
		return nil, fmt.Errorf("serve: shed-heap %d percent is above 100", cfg.ShedHeapPct)
	}
	mix, err := resolveMix(cfg)
	if err != nil {
		return nil, err
	}
	group, entries, err := pipeline.BuildTaskGroup(cfg.Workload.Source, cfg.Workload.Entries, cfg.Opts)
	if err != nil {
		return nil, err
	}
	fidx := map[string]int{}
	expect := map[string]int64{}
	for i, name := range cfg.Workload.Entries {
		fidx[name] = entries[i]
		if i < len(cfg.Workload.Expect) {
			expect[name] = cfg.Workload.Expect[i]
		}
	}

	res := &Result{Group: group}
	start := time.Now()
	if err := runOpenLoop(cfg, group, mix, fidx, expect, res); err != nil {
		return nil, err
	}
	res.WallNS = time.Since(start).Nanoseconds()
	res.Steps = group.Now()
	sort.Slice(res.Latencies, func(i, j int) bool { return res.Latencies[i] < res.Latencies[j] })

	// The zero-global-failure ledger: every issued request must be
	// accounted exactly once. A mismatch is a harness bug, not a report row.
	s := res.Stats
	if s.Completed+s.Dropped+s.Canceled+s.Faulted != s.Requests {
		return nil, fmt.Errorf("serve: %d requests but %d accounted (completed=%d dropped=%d canceled=%d faulted=%d)",
			s.Requests, s.Completed+s.Dropped+s.Canceled+s.Faulted,
			s.Completed, s.Dropped, s.Canceled, s.Faulted)
	}
	return res, nil
}

// runOpenLoop drives the arrival schedule through the Tick hook.
func runOpenLoop(cfg Config, g *tasking.Group, mix []MixEntry, fidx map[string]int, expect map[string]int64, res *Result) error {
	d := &driver{
		cfg:   withDefaults(cfg),
		g:     g,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		total: cfg.Requests,
		stats: &res.Stats,
	}
	d.queue.buf = make([]*request, d.cfg.QueueDepth)
	total := 0
	for _, m := range mix {
		total += m.Weight
	}
	for i := 0; i < cfg.Requests; i++ {
		pick := d.rng.Intn(total)
		entry := mix[len(mix)-1].Entry
		for _, m := range mix {
			if pick < m.Weight {
				entry = m.Entry
				break
			}
			pick -= m.Weight
		}
		at := int64(i/d.cfg.Burst) * cfg.Period
		d.waiting = append(d.waiting, &request{
			id: i, entry: entry, fidx: fidx[entry], expect: expect[entry],
			arriveAt: at, first: at,
		})
		res.Stats.Requests++
	}
	pq.Init(&d.waiting)
	g.Tick = d.tick
	if err := g.RunInit(); err != nil {
		return err
	}
	if err := g.Run(); err != nil {
		return err
	}
	g.Tick = nil
	res.Latencies = d.lats
	return nil
}

// withDefaults fills the zero-value admission knobs.
func withDefaults(cfg Config) Config {
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 8
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 1
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = cfg.Period
	}
	if cfg.BackoffCap == 0 {
		cfg.BackoffCap = 64 * cfg.Backoff
	}
	return cfg
}

// tick is the supervisor hook: called by the scheduler between rounds,
// never during a pending collection. Order matters for determinism:
// deadline cancels, completion accounting, arrivals/shedding, admission.
func (d *driver) tick(now int64) bool {
	if d.cfg.Deadline > 0 {
		for _, r := range d.inflight {
			if !r.canceled && now-r.admitted > d.cfg.Deadline &&
				d.g.CancelTask(r.task, fmt.Errorf("deadline exceeded: %d steps admitted, limit %d", now-r.admitted, d.cfg.Deadline)) {
				r.canceled = true
			}
		}
	}

	keep := d.inflight[:0]
	for _, r := range d.inflight {
		switch r.task.Status {
		case tasking.Done:
			d.lats = append(d.lats, now-r.first)
			d.stats.Completed++
			if code.DecodeInt(d.g.Prog.Repr, r.task.Result) != r.expect {
				d.stats.WrongResults++
			}
			d.resolved++
		case tasking.Faulted:
			if r.canceled {
				d.stats.Canceled++
			} else {
				d.stats.Faulted++
			}
			d.resolved++
		default:
			keep = append(keep, r)
		}
	}
	d.inflight = keep

	heapPressure := false
	if d.cfg.ShedHeapPct > 0 {
		heapPressure = 100*d.peakUsed()/d.capacity() >= d.cfg.ShedHeapPct
		if !heapPressure {
			d.majorReq = false // occupancy back under the watermark; re-arm rung 2
		}
	}
	// Arrivals due now, in deterministic (time, id) order. A shed request
	// re-enters the heap strictly after now, so it is not judged twice.
	for len(d.waiting) > 0 && d.waiting[0].arriveAt <= now {
		r := pq.Pop(&d.waiting).(*request)
		d.stats.Arrivals++
		if reason := d.shedReason(heapPressure); reason != "" {
			d.shed(r, now, reason)
			continue
		}
		d.queue.push(r)
	}

	for d.queue.n > 0 && len(d.inflight) < d.cfg.MaxInflight {
		r := d.queue.pop()
		r.task = d.g.Spawn(r.fidx)
		r.admitted = now
		d.stats.Admitted++
		d.inflight = append(d.inflight, r)
	}

	return d.resolved < d.total
}

// shedReason reports why a new arrival cannot be admitted ("" = admit).
// The heap watermark (computed once per tick by the caller) is judged
// before queue depth: occupancy pressure is the severer signal (it
// escalates to rung 2), so it must not be masked by a full queue.
func (d *driver) shedReason(heapPressure bool) string {
	if heapPressure {
		return "heap"
	}
	if d.queue.n >= d.cfg.QueueDepth {
		return "queue"
	}
	return ""
}

// capacity is the total allocatable space: the semispace plus, with a
// nursery, the young areas (minors promote their occupancy into the old
// region, so they count as pressure). YoungTotalWords sums every shard's
// area — YoungWords alone under-reports the young capacity, making
// admission shed early.
func (d *driver) capacity() int {
	c := d.g.Heap.SemiWords()
	if d.g.Heap.NurseryEnabled() {
		c += d.g.Heap.YoungTotalWords()
	}
	return c
}

// peakUsed is the high-water heap occupancy since the last admission
// decision. Ticks run at round boundaries, so the instantaneous reading
// systematically misses the sawtooth peak a collection just reset; any
// collection since the previous reading proves the heap reached its
// recorded UsedBefore words in between. On a mark/sweep heap only the
// instantaneous reading counts, and it is OccupiedWords: Used and
// UsedBefore are there the bump high-water mark, which no sweep lowers —
// judged on those the watermark latches the first time the heap fills and
// every later arrival is shed.
func (d *driver) peakUsed() int {
	h := d.g.Heap
	used := h.OccupiedWords() // Used on a copying heap
	if h.NurseryEnabled() {
		used += h.YoungUsed()
	}
	recs := d.g.Col.Telem.Records
	if h.Kind() != heap.MarkSweep {
		for _, r := range recs[d.seenRecords:] {
			if int(r.UsedBefore) > used {
				used = int(r.UsedBefore)
			}
		}
	}
	d.seenRecords = len(recs)
	return used
}

// shed records one shed event and either schedules the client's retry or
// drops the request for good.
func (d *driver) shed(r *request, now int64, reason string) {
	d.stats.Shed++
	if reason == "heap" {
		d.stats.ShedHeap++
		if !d.majorReq {
			// Rung 2: ask the group for a major cycle at its next
			// stop-the-world collection, once per watermark excursion.
			d.g.RequestMajor()
			d.majorReq = true
			d.stats.ForcedMajors++
		}
	}
	if r.attempts >= d.cfg.MaxRetries {
		d.stats.Dropped++
		d.resolved++
		return
	}
	r.attempts++
	backoff := d.cfg.Backoff << (r.attempts - 1)
	if backoff > d.cfg.BackoffCap {
		backoff = d.cfg.BackoffCap
	}
	backoff += d.rng.Int63n(backoff/2 + 1) // jitter de-synchronizes retry herds
	r.arriveAt = now + backoff
	d.stats.Retries++
	pq.Push(&d.waiting, r)
}

// resolveMix validates the service mix (defaulting to uniform over the
// workload's entries) against the workload.
func resolveMix(cfg Config) ([]MixEntry, error) {
	known := map[string]bool{}
	for _, e := range cfg.Workload.Entries {
		known[e] = true
	}
	mix := cfg.Mix
	if len(mix) == 0 {
		for _, e := range cfg.Workload.Entries {
			mix = append(mix, MixEntry{Entry: e, Weight: 1})
		}
	}
	for _, m := range mix {
		if !known[m.Entry] {
			return nil, fmt.Errorf("serve: mix entry %q is not an entry of workload %s", m.Entry, cfg.Workload.Name)
		}
		if m.Weight <= 0 {
			return nil, fmt.Errorf("serve: mix entry %q has non-positive weight %d", m.Entry, m.Weight)
		}
	}
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("serve: open-loop mode needs Requests > 0")
	}
	return mix, nil
}

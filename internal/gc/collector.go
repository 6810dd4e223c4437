package gc

import (
	"fmt"
	"time"

	"tagfree/internal/code"
	"tagfree/internal/heap"
)

// Strategy selects the collection method.
type Strategy int

// Collection strategies.
const (
	// StratCompiled is the paper's compiled method: per-call-site frame
	// routines prebuilt from compiler metadata.
	StratCompiled Strategy = iota
	// StratInterp is the Branquart/Lewi interpreted-descriptor method.
	StratInterp
	// StratAppel is the single-descriptor-per-procedure method with
	// per-frame dynamic-chain type resolution.
	StratAppel
	// StratTagged is the tagged baseline (headers + word tags, no
	// compiler metadata).
	StratTagged
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StratCompiled:
		return "compiled"
	case StratInterp:
		return "interp"
	case StratAppel:
		return "appel"
	case StratTagged:
		return "tagged"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy is the inverse of String: the one place a strategy's
// spelling (the -gc flag) is resolved.
func ParseStrategy(name string) (Strategy, error) {
	for s := StratCompiled; s <= StratTagged; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q (have compiled, interp, appel, tagged)", name)
}

// CompatibleRepr returns the value representation a strategy requires.
func (s Strategy) CompatibleRepr() code.Repr {
	if s == StratTagged {
		return code.ReprTagged
	}
	return code.ReprTagFree
}

// TaskRoots describes one task's stack for collection.
type TaskRoots struct {
	Stack []code.Word
	FP    int
	SP    int
	// PC is the instruction the task is stopped at: the allocation
	// instruction for the task that triggered collection, or the call
	// instruction a suspended task is about to execute (tasking, §4).
	PC int
	// AtCall marks a task suspended *before* a call: the call's argument
	// slots are still owned by this frame and join its root set.
	AtCall bool
}

// Stats instruments collection work for the experiment harness.
type Stats struct {
	Collections   int64
	FramesTraced  int64
	SlotsTraced   int64
	ObjectsCopied int64
	// TypeGCBuilt counts distinct type_gc_routine closures constructed.
	TypeGCBuilt int64
	// DescBytesDecoded counts descriptor bytes decoded (interp mode).
	DescBytesDecoded int64
	// ChainSteps counts per-frame dynamic-chain resolution steps (Appel
	// mode; quadratic in stack depth for polymorphic towers).
	ChainSteps int64
	// WordsScanned counts stack/heap words examined by the tagged scan.
	WordsScanned int64
	// PauseNS is the total wall-clock time spent inside collections.
	PauseNS int64
	// PlanHits/PlanMisses count frame-plan cache lookups on the compiled
	// fast path (see fastpath.go); a hit resolves a frame's entire routine
	// without touching the TypeGC builder.
	PlanHits   int64
	PlanMisses int64
	// SiteCacheHits/SiteCacheMisses count pc→site lookups served by the
	// lookup cache versus decoded from the instruction stream.
	SiteCacheHits   int64
	SiteCacheMisses int64
	// KernelWords counts heap words traced by specialized kernels instead
	// of per-word Trace interface dispatch.
	KernelWords int64
}

// Collector runs collections over a heap for one compiled program.
type Collector struct {
	Prog  *code.Program
	Heap  *heap.Heap
	Strat Strategy
	Stats Stats

	// Telem accumulates per-collection telemetry (see telemetry.go).
	Telem Telemetry
	// Faults, when non-nil, injects allocation failures and forced
	// collections (see faultinject.go).
	Faults *FaultPlan
	// PreCollect, when non-nil, runs at the top of every collection before
	// the heap snapshot and Heap.Begin, with the stopped stacks the collection
	// is about to trace. The tasking runtime uses it to retire all live
	// TLABs, so the collector (and any harness calling Collect directly)
	// always sees a fully tiled heap.
	PreCollect func(tasks []TaskRoots)
	// Verify runs the post-collection heap verifier after every collection
	// (see verify.go); violations panic with a *VerifyError.
	Verify bool

	// Gen counts generational activity (see generational.go); all zero
	// unless the heap has a nursery.
	Gen GenStats

	b *builder
	// own is the collector's tracer: it claims through the heap.Claim each
	// cycle's Heap.Begin fills, counted in Stats. Every trace runs through it.
	own tracer
	// Generational state (generational.go): the typed remembered set with
	// its dedup index, the store-descriptor→routine and routine→kernel
	// memos, whether the next collection must be a major, whether the
	// in-progress trace should record old→young edges, and what the last
	// collection was.
	remembered    []remEntry
	remIndex      map[remKey]int
	storeG        map[*code.TypeDesc]TypeGC
	remSlots      map[TypeGC]*routine
	genForceMajor bool
	genTracking   bool
	lastMinor     bool
	// sc is the scratch arena root resolution bump-allocates into.
	sc scratch
	// siteCache is the pc→site lookup cache: siteIdx+1 per code index,
	// zero = unfilled (see siteAtFast).
	siteCache []int32
	// plans is the frame-plan cache (compiled strategy fast path), keyed by
	// (site, incoming type instantiation).
	plans map[planKey]*framePlan
	// interpSites holds the serialized frame maps (interp mode).
	interpSites [][]byte
	// MetadataSize reports the strategy's GC metadata footprint in words
	// (experiment E4).
	MetadataSize int64
}

// New builds a collector, precompiling the strategy's metadata (the
// analogue of the compiler emitting frame_gc_routines into the binary).
func New(prog *code.Program, h *heap.Heap, strat Strategy) (*Collector, error) {
	if strat.CompatibleRepr() != prog.Repr {
		return nil, fmt.Errorf("gc: strategy %v requires %v representation, program is %v",
			strat, strat.CompatibleRepr(), prog.Repr)
	}
	c := &Collector{Prog: prog, Heap: h, Strat: strat, b: newBuilder(), plans: map[planKey]*framePlan{}}
	c.own = tracer{c: c}
	if strat != StratTagged {
		c.siteCache = make([]int32, len(prog.Code))
	}
	switch strat {
	case StratCompiled:
		for _, si := range prog.Sites {
			// The ground routines are built here, as a compiler emits them
			// with the program; a plan finds them hash-consed (buildPlan).
			for _, e := range si.Live {
				if isGround(e.Desc) {
					c.FromDesc(e.Desc, nil)
				}
			}
			// A compiled trace step costs roughly a handful of instructions;
			// model routine size as 4 words a live slot, plus 2 for the
			// routine's prologue and dispatch entry.
			c.MetadataSize += int64(4*len(si.Live) + 2)
		}
	case StratInterp:
		c.interpSites = make([][]byte, len(prog.Sites))
		for i, si := range prog.Sites {
			c.interpSites[i] = encodeSite(si)
			c.MetadataSize += int64((len(c.interpSites[i]) + 7) / 8)
		}
	case StratAppel:
		for _, fi := range prog.Funcs {
			// One descriptor per procedure: every pointer-bearing slot.
			c.MetadataSize += int64(len(fi.AllSlots)) // ~1 word per entry
		}
	case StratTagged:
		// No compiler metadata; the cost is paid in headers and tag bits.
	}
	return c, nil
}

func isGround(d *code.TypeDesc) bool {
	if d.Kind == code.TDVar {
		return false
	}
	for _, a := range d.Args {
		if !isGround(a) {
			return false
		}
	}
	return true
}

// scratch is the collector's arena. Type-argument windows, root-job lists and
// the frame list of a stack walk used to be allocated per frame and per stack
// walk — on a deep polymorphic tower that is thousands of short-lived slices
// per collection; now they bump-allocate here, the arena resets when its
// windows are dead (at the top of a collection's task scan, and of each
// ResolveRoots), and a collection of a warmed collector allocates nothing on
// the host that grows with the stack.
// Growth never invalidates a window already handed out: a block that fills
// is replaced (targs) or copied (jobs), and earlier windows keep the old
// backing array.
type scratch struct {
	targs []TypeGC
	jobs  []rootJob
	// ends[i] is where task i's jobs end in jobs (collectTasks): the
	// collection's lists stay there for the verifier.
	ends []int
	// frames is the one stack walk's record (walk), overwritten by the next.
	frames []frame
}

func (s *scratch) reset() {
	s.targs = s.targs[:0]
	s.jobs = s.jobs[:0]
	s.ends = s.ends[:0]
}

// traced is the list collectTasks resolved and traced for task i.
func (s *scratch) traced(i int) []rootJob {
	start := 0
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.jobs[start:s.ends[i]]
}

// typeArgs returns an n-slot window at the arena tail. Callers assign every
// slot, so stale contents from a previous cycle never leak. A nil arena
// allocates: what a frame plan keeps outlives every collection.
func (s *scratch) typeArgs(n int) []TypeGC {
	if n == 0 {
		return nil
	}
	if s == nil {
		return make([]TypeGC, n)
	}
	if cap(s.targs)-len(s.targs) < n {
		size := 2 * cap(s.targs)
		if size < 64 {
			size = 64
		}
		for size < n {
			size *= 2
		}
		s.targs = make([]TypeGC, 0, size)
	}
	l := len(s.targs)
	s.targs = s.targs[:l+n]
	return s.targs[l : l+n : l+n]
}

// Collect runs one collection over all task stacks and globals: a minor
// nursery collection when the remembered set can stand in for the old
// region's interior edges (see generational.go), else a full one.
func (c *Collector) Collect(tasks []TaskRoots, globals []code.Word) {
	if c.MinorEligible() {
		c.cycle(tasks, globals, heap.Cycle{Minor: true})
		return
	}
	c.CollectFull(tasks, globals)
}

// MinorEligible reports whether the next collection may be a minor one
// (global or single-shard): a nursery is configured and nothing has poisoned
// the remembered set since the last major (untyped store, overflow,
// pre-tenured allocation). The sharded scheduler consults it before
// attempting a shard minor: a poisoned set forces a full collection
// regardless of shard.
func (c *Collector) MinorEligible() bool { return c.nurseryOn() && !c.genForceMajor }

// CollectFull runs one full (major) collection over all task stacks and
// globals. On a nursery heap it also rebuilds the remembered set from the
// old→young edges the trace observes, discharging any force-major
// condition.
func (c *Collector) CollectFull(tasks []TaskRoots, globals []code.Word) {
	c.cycle(tasks, globals, heap.Cycle{})
}

// CollectMinorShard evacuates a single nursery shard: tasks must be exactly
// the roots of the tasks assigned to that shard, and the caller (the
// sharded tasking scheduler) must have established the shard's isolation
// invariant — no pointer into the shard's young generation lives outside
// those tasks' stacks, the globals, the shard's own young objects, and the
// remembered set — and retired the shard's young TLABs. Other shards'
// mutators, buffers and bump pointers are untouched, which is the point:
// they keep running while this shard collects. Unlike Collect, there is no
// fallback here; callers check MinorEligible and escalate to a global
// collection themselves when a shard minor is not permitted or did not
// free enough.
func (c *Collector) CollectMinorShard(shard int, tasks []TaskRoots, globals []code.Word) {
	if !c.MinorEligible() {
		panic("gc: CollectMinorShard without minor eligibility (check MinorEligible)")
	}
	c.cycle(tasks, globals, heap.Cycle{Minor: true, Shard: shard + 1})
}

// cycle is the collection of kind k, which its entry point decides; the
// rest — the prologue, the root order, the epilogue — is the same for all
// (DESIGN.md §16 tabulates what each kind sets): the paper's Figure 2 loop
// with everything every discipline hangs on it. Root order is stated here
// and nowhere else — globals, then the stacks in task order, then on a
// minor the remembered set, then the tagged strategy's Cheney scan.
func (c *Collector) cycle(tasks []TaskRoots, globals []code.Word, k heap.Cycle) {
	if k.Shard == 0 && c.PreCollect != nil {
		c.PreCollect(tasks)
	}
	start := time.Now()
	c.Stats.Collections++
	c.lastMinor = k.Minor
	nursery := c.nurseryOn()
	kind := ""
	switch {
	case k.Minor:
		kind = "minor"
		c.Gen.MinorCollections++
	case nursery:
		kind = "major"
		c.Gen.MajorCollections++
		c.resetRemembered()
	}
	// The snapshot the record measures against; used is old + young.
	stats, hs, used := c.Stats, c.Heap.Stats, c.Heap.Used()+c.Heap.YoungUsed()
	c.Heap.Begin(&c.own.claim, k)
	c.genTracking = nursery

	c.traceGlobals(globals)
	scans := make([]TaskScan, len(tasks))
	c.collectTasks(tasks, scans)
	if k.Minor {
		c.traceRemembered(k.Shard - 1)
	}
	if c.Strat == StratTagged {
		c.cheneyScan()
	}

	c.Stats.TypeGCBuilt = c.b.Built
	c.genTracking = false
	c.Heap.End()
	if k.Minor {
		c.refilterRemembered()
	}
	if c.Heap.Stats.PromotionFailures != hs.PromotionFailures {
		// A survivor stayed young for want of old-region room: a major
		// makes that room (the recovery ladder grows the heap when even a
		// major cannot).
		c.genForceMajor = true
	}
	pause := time.Since(start).Nanoseconds()
	c.Stats.PauseNS += pause
	c.Telem.record(c, kind, k.Shard, pause, scans, used, stats, hs)
	if c.Verify {
		c.verifyCollection(tasks, globals)
	}
}

// traceGlobals forwards/marks the global slots.
func (c *Collector) traceGlobals(globals []code.Word) {
	for i, g := range c.Prog.Globals {
		if c.Strat == StratTagged {
			globals[i] = c.traceTaggedWord(globals[i])
		} else {
			globals[i] = c.FromDesc(g.Desc, nil).Trace(&c.own, globals[i])
		}
	}
}

// collectTasks scans the task stacks one at a time, in task order — the
// §4 walk: resolve a task's roots into the arena and trace them in order.
// The arena resets once, here, so every task's list outlives the trace for
// the verifier to check (scratch.traced).
func (c *Collector) collectTasks(tasks []TaskRoots, scans []TaskScan) {
	c.sc.reset()
	for i := range tasks {
		snap, before := c.Stats, c.Heap.Stats.WordsCopied
		if c.Strat == StratTagged {
			c.collectTaggedTask(tasks[i])
		} else {
			c.applyJobs(tasks[i].Stack, c.taskJobs(tasks[i]))
		}
		c.sc.ends = append(c.sc.ends, len(c.sc.jobs))
		scans[i] = taskScan(i, &c.Stats, &snap, c.Heap.Stats.WordsCopied-before)
	}
}

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

// ---------------------------------------------------------------------------
// Tagged baseline.
// ---------------------------------------------------------------------------

// collectTaggedTask scans every word of every frame by tag bits. No
// compiler metadata is consulted: frame extents come from the dynamic
// links alone.
func (c *Collector) collectTaggedTask(t TaskRoots) {
	fr := c.sc.walk(t)
	for i := len(fr) - 1; i >= 0; i-- {
		end := t.SP
		if i > 0 {
			end = fr[i-1].fp
		}
		for j := fr[i].fp + 2; j < end; j++ {
			c.Stats.WordsScanned++
			t.Stack[j] = c.traceTaggedWord(t.Stack[j])
		}
	}
	c.Stats.FramesTraced += int64(len(fr))
}

// traceTaggedWord forwards one word if it is a pointer: the claim reads the
// object's size from its header.
func (c *Collector) traceTaggedWord(w code.Word) code.Word {
	if !code.IsBoxedValue(code.ReprTagged, w) {
		return w
	}
	nw, fresh := c.own.claim.Visit(w, 0)
	if fresh {
		c.Stats.ObjectsCopied++
	}
	return nw
}

// cheneyScan completes the tagged collection: scan to-space linearly,
// forwarding every pointer field (headers give object extents). The scan
// runs batched — one callback per object over its field words in place —
// instead of one indirect call per word.
func (c *Collector) cheneyScan() {
	c.Heap.ScanToSpaceBatched(func(fields []code.Word) {
		c.Stats.WordsScanned += int64(len(fields))
		for i, w := range fields {
			fields[i] = c.traceTaggedWord(w)
		}
	})
}

package gc

import "tagfree/internal/heap"

// GC telemetry: every collection appends a structured record — what the
// pause cost, what each task's stack contributed, how much survived — and
// feeds two cumulative histograms. The ROADMAP's "explain its own pause
// behavior" requirement: liveness-style collector work (Karkare et al.;
// Kumar et al.) is only measurable with per-collection numbers, which the
// scalar Stats block cannot express.
//
// Telemetry is collected unconditionally: the record is a handful of
// integers per collection, dwarfed by the collection itself. Rendering
// (table and JSON emitters) lives in internal/pipeline/render.go.

// TaskScan is the collection work attributable to one task's roots.
// Structure shared between tasks is attributed to the first task whose
// roots reach it.
type TaskScan struct {
	Task    int   `json:"task"`
	Frames  int64 `json:"frames"`
	Slots   int64 `json:"slots"`
	Objects int64 `json:"objects"`
	// Words is the heap words copied (copying) or marked (mark/sweep)
	// reachable from this task's stack.
	Words int64 `json:"words"`
}

// CollectionRecord is one collection's telemetry.
type CollectionRecord struct {
	Seq     int   `json:"seq"`
	PauseNS int64 `json:"pause_ns"`
	// Kind is "minor" or "major" on a generational heap, empty otherwise
	// (so non-nursery runs keep their exact pre-generational JSON).
	Kind string `json:"gc_kind,omitempty"`
	// Shard is the 1-based nursery shard a single-shard minor collected;
	// 0 (omitted) for global collections, so unsharded runs keep their
	// exact prior JSON.
	Shard int `json:"shard,omitempty"`
	// UsedBefore is the occupied space when the collection started;
	// LiveWords is what survived it. SurvivorPct is their ratio — under
	// mark/sweep UsedBefore is the bump high-water mark, so the ratio
	// reads as "fraction of occupied space still live".
	UsedBefore  int64   `json:"used_before"`
	LiveWords   int64   `json:"live_words"`
	SurvivorPct float64 `json:"survivor_pct"`
	// WordsVisited is the words copied or marked by this collection.
	WordsVisited int64 `json:"words_visited"`
	FramesTraced int64 `json:"frames_traced"`
	SlotsTraced  int64 `json:"slots_traced"`
	// WordsScanned counts tag-driven word scans (tagged strategy only).
	WordsScanned int64 `json:"words_scanned,omitempty"`
	// Fast-path counters (Compiled strategy unless disabled): frame-plan
	// cache hits/misses, pc→site cache hits, and words traced by
	// specialized kernels rather than generic Trace dispatch.
	PlanHits      int64 `json:"plan_hits,omitempty"`
	PlanMisses    int64 `json:"plan_misses,omitempty"`
	SiteCacheHits int64 `json:"site_cache_hits,omitempty"`
	KernelWords   int64 `json:"kernel_words,omitempty"`
	// FreeListHitPct is the share of mutator allocations since the last
	// collection that were laid in a hole a sweep left (heap.Stats.
	// FreeListHits; mark/sweep only; -1 when no allocations happened in the
	// interval or the heap is copying).
	FreeListHitPct float64 `json:"free_list_hit_pct"`
	// Generational counters (nursery heaps only): words tenured by this
	// collection, remembered-set population after it, and write-barrier
	// hits since the previous collection.
	PromotedWords int64 `json:"promoted_words,omitempty"`
	Remembered    int   `json:"remembered,omitempty"`
	BarrierHits   int64 `json:"barrier_hits,omitempty"`
	// TLAB carries the allocation-buffer activity since the previous
	// collection; nil unless the heap runs TLABs (so non-TLAB runs keep
	// their exact prior JSON, like Kind for the nursery).
	TLAB *TLABRecord `json:"tlab,omitempty"`
	// Tasks breaks the scan down per task stack.
	Tasks []TaskScan `json:"tasks,omitempty"`
}

// TLABRecord is the allocation-buffer activity in one inter-collection
// interval. SharedAllocs counts shared-heap acquisitions (slow-path Allocs
// plus refill carves) — divided by FastAllocs it shows the amortized
// O(1/chunk) contention the buffers buy.
type TLABRecord struct {
	Refills       int64 `json:"refills"`
	RefillWords   int64 `json:"refill_words"`
	FastAllocs    int64 `json:"fast_allocs"`
	SharedAllocs  int64 `json:"shared_allocs"`
	WasteWords    int64 `json:"waste_words"`
	ReturnedWords int64 `json:"returned_words"`
}

// Histogram bucket layouts. Pause buckets are decades of nanoseconds:
// <1µs, <10µs, <100µs, <1ms, <10ms, <100ms, ≥100ms. Survivor buckets are
// deciles of the survivor percentage.
const (
	PauseBuckets    = 7
	SurvivorBuckets = 10
)

// PauseBucketLabel names pause histogram bucket i.
func PauseBucketLabel(i int) string {
	labels := [PauseBuckets]string{"<1µs", "<10µs", "<100µs", "<1ms", "<10ms", "<100ms", "≥100ms"}
	return labels[i]
}

// SurvivorBucketLabel names survivor histogram bucket i.
func SurvivorBucketLabel(i int) string {
	labels := [SurvivorBuckets]string{
		"0-10%", "10-20%", "20-30%", "30-40%", "40-50%",
		"50-60%", "60-70%", "70-80%", "80-90%", "90-100%"}
	return labels[i]
}

func pauseBucket(ns int64) int {
	bound := int64(1_000)
	for i := 0; i < PauseBuckets-1; i++ {
		if ns < bound {
			return i
		}
		bound *= 10
	}
	return PauseBuckets - 1
}

func survivorBucket(pct float64) int {
	i := int(pct / 10)
	if i < 0 {
		i = 0
	}
	if i >= SurvivorBuckets {
		i = SurvivorBuckets - 1
	}
	return i
}

// Telemetry accumulates per-collection records and cumulative histograms
// for one collector (and therefore one strategy and heap discipline).
type Telemetry struct {
	Strategy string `json:"strategy"`
	// Kind is the heap discipline: "copying" or "mark/sweep".
	Kind         string                 `json:"kind"`
	Records      []CollectionRecord     `json:"records"`
	PauseHist    [PauseBuckets]int64    `json:"pause_hist"`
	SurvivorHist [SurvivorBuckets]int64 `json:"survivor_hist"`
	// Resilience counts fault-injection and recovery-ladder outcomes.
	Resilience ResilienceStats `json:"resilience,omitzero"`
	// TLABTotal is the whole-run allocation-buffer total, set by
	// FinalizeTLAB when the run ends. Per-record TLAB deltas stop at the
	// last collection; this covers the mutator tail after it too.
	TLABTotal *TLABRecord `json:"tlab_total,omitempty"`

	// Interval baselines for per-collection allocation rates, barrier
	// activity and TLAB churn.
	lastAllocs  int64
	lastHits    int64
	lastBarrier int64
	lastTLAB    TLABRecord
}

// ResilienceStats counts memory-pressure events and their outcomes: what
// was injected (OOMs, forced collections) and how the runtime recovered
// (growth, the recovery ladder) or did not (task faults).
type ResilienceStats struct {
	// InjectedOOMs counts allocation failures forced by a FaultPlan.
	InjectedOOMs int64 `json:"injected_ooms,omitempty"`
	// TortureCollections counts collections forced by torture mode.
	TortureCollections int64 `json:"torture_collections,omitempty"`
	// EmergencyCollections counts collections triggered by an allocation
	// failure (genuine or injected) rather than a Need pre-check.
	EmergencyCollections int64 `json:"emergency_collections,omitempty"`
	// LadderRecovered counts ladder climbs (an emergency collection, or an
	// escalation past the routine collect) whose retry finally succeeded;
	// LadderExhausted counts climbs that ran out of rungs and ended in an
	// allocation failure. Split so resilience stats distinguish genuine
	// recovery from delay-of-death: an emergency-collect rung that merely
	// preceded the fault is not a rescue.
	LadderRecovered int64 `json:"ladder_recovered,omitempty"`
	LadderExhausted int64 `json:"ladder_exhausted,omitempty"`
	// HeapGrowths counts recovery-ladder heap growths.
	HeapGrowths int64 `json:"heap_growths,omitempty"`
	// TaskFaults counts tasks faulted after the ladder was exhausted or a
	// runtime error.
	TaskFaults int64 `json:"task_faults,omitempty"`
	// BudgetFaults counts tasks terminated for exceeding a per-task budget
	// (step deadline or allocation-word quota); each is also a TaskFault.
	BudgetFaults int64 `json:"budget_faults,omitempty"`
}

// record appends one collection's telemetry. kind is "minor"/"major" on a
// nursery heap, "" otherwise; shard is the 1-based shard of a single-shard
// minor (0 = global); statsBefore/heapBefore are snapshots from the top of
// the collection; usedBefore the pre-flip occupancy (old + young).
func (t *Telemetry) record(c *Collector, kind string, shard int, pauseNS int64, scans []TaskScan, usedBefore int, statsBefore Stats, heapBefore heap.Stats) {
	if t.Strategy == "" {
		t.Strategy = c.Strat.String()
		if c.Heap.Kind() == heap.MarkSweep {
			t.Kind = "mark/sweep"
		} else {
			t.Kind = "copying"
		}
	}
	live := c.Heap.Stats.LiveAfterLastGC
	if kind == "minor" {
		// A minor collection leaves the old region untouched, so the heap's
		// live figure is stale; report post-collection occupancy instead
		// (old usage plus young survivors).
		live = int64(c.Heap.Used() + c.Heap.YoungUsed())
	}
	survivor := 0.0
	if usedBefore > 0 {
		survivor = 100 * float64(live) / float64(usedBefore)
	}
	allocs := c.Heap.Stats.Allocations
	hits := c.Heap.Stats.FreeListHits
	hitPct := -1.0
	if c.Heap.Kind() == heap.MarkSweep && allocs > t.lastAllocs {
		hitPct = 100 * float64(hits-t.lastHits) / float64(allocs-t.lastAllocs)
	}
	t.lastAllocs, t.lastHits = allocs, hits

	barrier := c.Gen.BarrierHits - t.lastBarrier
	t.lastBarrier = c.Gen.BarrierHits

	rec := CollectionRecord{
		Seq:            len(t.Records),
		PauseNS:        pauseNS,
		Kind:           kind,
		Shard:          shard,
		UsedBefore:     int64(usedBefore),
		LiveWords:      live,
		SurvivorPct:    survivor,
		WordsVisited:   c.Heap.Stats.WordsCopied - heapBefore.WordsCopied,
		FramesTraced:   c.Stats.FramesTraced - statsBefore.FramesTraced,
		SlotsTraced:    c.Stats.SlotsTraced - statsBefore.SlotsTraced,
		WordsScanned:   c.Stats.WordsScanned - statsBefore.WordsScanned,
		PlanHits:       c.Stats.PlanHits - statsBefore.PlanHits,
		PlanMisses:     c.Stats.PlanMisses - statsBefore.PlanMisses,
		SiteCacheHits:  c.Stats.SiteCacheHits - statsBefore.SiteCacheHits,
		KernelWords:    c.Stats.KernelWords - statsBefore.KernelWords,
		FreeListHitPct: hitPct,
		Tasks:          scans,
	}
	if kind != "" {
		rec.PromotedWords = c.Heap.Stats.PromotedWords - heapBefore.PromotedWords
		rec.Remembered = c.RememberedLen()
		rec.BarrierHits = barrier
	}
	if c.Heap.TLABsEnabled() {
		// TLAB activity is mutator-side, so the interval is record-to-record
		// (like FreeListHitPct), not the collection's own heapBefore window —
		// that window would miss everything between collections, including
		// the pre-collection retirement wave.
		hs := c.Heap.Stats
		cum := TLABRecord{
			Refills:       hs.TLABRefills,
			RefillWords:   hs.TLABRefillWords,
			FastAllocs:    hs.TLABAllocs,
			SharedAllocs:  hs.SharedAllocs,
			WasteWords:    hs.TLABWasteWords,
			ReturnedWords: hs.TLABReturnedWords,
		}
		rec.TLAB = &TLABRecord{
			Refills:       cum.Refills - t.lastTLAB.Refills,
			RefillWords:   cum.RefillWords - t.lastTLAB.RefillWords,
			FastAllocs:    cum.FastAllocs - t.lastTLAB.FastAllocs,
			SharedAllocs:  cum.SharedAllocs - t.lastTLAB.SharedAllocs,
			WasteWords:    cum.WasteWords - t.lastTLAB.WasteWords,
			ReturnedWords: cum.ReturnedWords - t.lastTLAB.ReturnedWords,
		}
		t.lastTLAB = cum
	}
	t.Records = append(t.Records, rec)
	t.PauseHist[pauseBucket(pauseNS)]++
	t.SurvivorHist[survivorBucket(survivor)]++
}

// FinalizeTLAB snapshots the run's cumulative allocation-buffer totals
// from the heap counters. Call once after the mutator finishes: the last
// collection's record cannot see the TLAB activity that follows it.
func (t *Telemetry) FinalizeTLAB(hs heap.Stats) {
	t.TLABTotal = &TLABRecord{
		Refills:       hs.TLABRefills,
		RefillWords:   hs.TLABRefillWords,
		FastAllocs:    hs.TLABAllocs,
		SharedAllocs:  hs.SharedAllocs,
		WasteWords:    hs.TLABWasteWords,
		ReturnedWords: hs.TLABReturnedWords,
	}
}

// LiveWordsPerCollection returns the live-word count after each collection
// — the differential tests' equality signature for two configurations.
func (t *Telemetry) LiveWordsPerCollection() []int64 {
	out := make([]int64, len(t.Records))
	for i, r := range t.Records {
		out[i] = r.LiveWords
	}
	return out
}

// TotalPauseNS sums all recorded pauses.
func (t *Telemetry) TotalPauseNS() int64 {
	var total int64
	for _, r := range t.Records {
		total += r.PauseNS
	}
	return total
}

package gc

// Generational collection over the nursery heap (heap/nursery.go). The
// paper's frame routines re-trace stacks and globals from compiler metadata
// on every collection, so a minor collection gets its stack and global
// roots for free; the one thing it cannot recover is interior old→young
// heap edges, because old objects are deliberately not traced during a
// minor. Those edges come from a typed remembered set:
//
//   - The mutator's write barrier (vm / tasking, OpStFld only — stack slots
//     and globals are rescanned as roots and need no barrier) reports every
//     store that plants a young pointer in an old object, together with the
//     *static* type descriptor of the stored value the compiler recorded in
//     Program.StoreDescs. Tag-free objects have no headers, so the entry
//     must carry its own trace routine; a ground descriptor resolves to a
//     hash-consed TypeGC once and is shared by every later hit.
//   - The trace itself reports edges through Collector.setField: an old
//     (or just-promoted) parent whose traced child stayed young — pinned,
//     the old region having no room for it — is re-remembered, so a failed
//     promotion never strands an edge, and a major collection rebuilds the
//     whole set from what it observes.
//
// Stores the barrier cannot type (a polymorphic store whose descriptor
// still contains type variables — the frame context needed to resolve it is
// gone by collection time) and remembered-set overflow degrade safely: the
// next collection is forced to be a major, which needs no remembered set.
// Pre-tenured allocations (oversize objects placed directly in the old
// region) degrade the same way: their initializing stores bypass the
// barrier, so the set cannot be trusted until a major rebuilds it. A
// collection that pinned a survivor the old region had no room for
// (heap.Stats.PromotionFailures) forces a major too (cycle).

import (
	"tagfree/internal/code"
)

// rememberedCap bounds the remembered set. Overflow forces the next
// collection to be a major, which rebuilds the set from the full trace —
// the classic sequential-store-buffer overflow discipline.
const rememberedCap = 8192

// remEntry is one remembered old→young edge: the old object, the field
// holding the young pointer, and the trace routine for the stored value.
type remEntry struct {
	obj   code.Word
	field int32
	g     TypeGC
}

// remKey identifies an entry for deduplication.
type remKey struct {
	obj   code.Word
	field int32
}

// GenStats counts generational-collection activity (zero without a
// nursery).
type GenStats struct {
	// MinorCollections/MajorCollections split Stats.Collections by kind.
	MinorCollections int64
	MajorCollections int64
	// BarrierHits counts mutator stores that recorded a remembered-set
	// entry; BarrierDups counts stores deduplicated against an existing
	// entry for the same field.
	BarrierHits int64
	BarrierDups int64
	// TracedEdges counts old→young edges recorded by the trace itself
	// (promoted parents during minors, everything during a major rebuild).
	TracedEdges int64
	// UntypedStores counts barrier hits whose store descriptor was not
	// ground (polymorphic store); each forces the next collection major.
	UntypedStores int64
	// Overflows counts remembered-set overflows (forced majors).
	Overflows int64
	// PreTenured counts oversize allocations placed directly in old space
	// (forced majors: their init stores bypass the barrier).
	PreTenured int64
	// RememberedPeak is the largest remembered-set population observed.
	RememberedPeak int64
}

// nurseryOn reports whether this collector drives a generational heap.
func (c *Collector) nurseryOn() bool {
	return c.Strat != StratTagged && c.Heap.NurseryEnabled()
}

// LastCollectionMinor reports whether the most recent collection was a
// minor one (the recovery ladder escalates to CollectFull when a minor did
// not free enough).
func (c *Collector) LastCollectionMinor() bool { return c.lastMinor }

// Remember is the write barrier's slow path: the mutator stored val-shaped
// data into field of an old object and the value is (statically typed and
// dynamically confirmed) a young pointer. desc is the stored value's static
// descriptor from Program.StoreDescs.
func (c *Collector) Remember(obj code.Word, field int, desc *code.TypeDesc) {
	g, ok := c.storeRoutine(desc)
	if !ok {
		// A polymorphic store: the type environment that would resolve the
		// descriptor's variables belonged to the storing frame and is not
		// recoverable at collection time. Force a major, which traces old
		// space with full type information.
		c.Gen.UntypedStores++
		c.genForceMajor = true
		return
	}
	c.remember(obj, int32(field), g, false)
}

// NoteTenuredAlloc records that the mutator allocated an object directly in
// the old region (oversize for the nursery). Its initializing stores are
// untracked old→young edges, so the next collection must be a major.
func (c *Collector) NoteTenuredAlloc() {
	c.Gen.PreTenured++
	c.genForceMajor = true
}

// storeRoutine resolves a store descriptor to its trace routine, memoized
// by descriptor identity (descriptors are hash-consed by the compiler). A
// nil routine marks a non-ground descriptor the barrier cannot use.
func (c *Collector) storeRoutine(desc *code.TypeDesc) (TypeGC, bool) {
	if g, seen := c.storeG[desc]; seen {
		return g, g != nil
	}
	var g TypeGC
	if isGround(desc) {
		g = c.FromDesc(desc, nil)
	}
	if c.storeG == nil {
		c.storeG = map[*code.TypeDesc]TypeGC{}
	}
	c.storeG[desc] = g
	return g, g != nil
}

// remember records one old→young edge, deduplicating by (object, field).
// The newest store's routine wins a duplicate — the field holds one value
// and its latest static type describes it. traced marks trace-time callers
// (counter attribution only).
func (c *Collector) remember(obj code.Word, field int32, g TypeGC, traced bool) {
	k := remKey{obj: obj, field: field}
	if i, dup := c.remIndex[k]; dup {
		c.remembered[i].g = g
		if !traced {
			c.Gen.BarrierDups++
		}
		return
	}
	if len(c.remembered) >= rememberedCap {
		c.Gen.Overflows++
		c.genForceMajor = true
		return
	}
	if c.remIndex == nil {
		c.remIndex = map[remKey]int{}
	}
	c.remIndex[k] = len(c.remembered)
	c.remembered = append(c.remembered, remEntry{obj: obj, field: field, g: g})
	if traced {
		c.Gen.TracedEdges++
	} else {
		c.Gen.BarrierHits++
	}
	if n := int64(len(c.remembered)); n > c.Gen.RememberedPeak {
		c.Gen.RememberedPeak = n
	}
}

// setField stores v, the traced value of field i of obj, which held was —
// only when tracing changed the word, which on a heap that does not move
// objects is never — and, on a nursery heap, records the old→young edge the
// field now holds. Every interior pointer the trace produces goes through
// here; g is the routine for the written value, so the entry can re-trace
// the edge at the next minor.
func (t *tracer) setField(obj code.Word, i int, was, v code.Word, g TypeGC) {
	c := t.c
	if v != was {
		t.claim.SetField(obj, i, v)
	}
	if !c.genTracking {
		return
	}
	if _, isConst := g.(*constG); isConst {
		return // a const-typed word may alias a young address; never a pointer
	}
	if c.Heap.InOld(obj) && c.Heap.InYoung(v) {
		c.remember(obj, int32(i), g, true)
	}
}

// traceRemembered re-traces the remembered old→young edges during a minor
// collection: all of them, or with shard >= 0 only the entries whose field
// currently holds a pointer into that nursery shard — other shards are not
// being collected, so their targets do not move and their entries stay
// untouched. An edge is a root like a stack slot, so on the compiled fast
// path it runs the kernel its routine classifies to (remSlot), bit-identical
// to the generic walk. Entries appended mid-loop (a promoted parent whose
// child was pinned) are already traced when recorded, and re-tracing a
// visited object is a forwarding hit, so the growing-slice iteration is
// safe.
func (c *Collector) traceRemembered(shard int) {
	fast := c.planned()
	for i := 0; i < len(c.remembered); i++ {
		e := c.remembered[i] // copy: the slice may grow or move mid-loop
		v := c.Heap.Field(e.obj, int(e.field))
		if shard >= 0 && !c.Heap.InYoungShard(v, shard) {
			continue
		}
		if fast {
			v = c.own.kernel(c.remSlot(e.g), v)
		} else {
			v = e.g.Trace(&c.own, v)
		}
		c.Heap.SetField(e.obj, int(e.field), v)
		c.Stats.SlotsTraced++
	}
}

// remSlot classifies a remembered routine once per node, like a plan slot.
func (c *Collector) remSlot(g TypeGC) *routine {
	if r := c.remSlots[g]; r != nil {
		return r
	}
	r := c.classified(g)
	if c.remSlots == nil {
		c.remSlots = map[TypeGC]*routine{}
	}
	c.remSlots[g] = &r
	return &r
}

// refilterRemembered drops entries whose field no longer holds a young
// pointer (the target was promoted, or the field was overwritten before the
// collection). Keeping a stale-but-young-looking word is safe; dropping a
// genuinely young edge is not, so the filter keys on the current field
// value's range alone.
func (c *Collector) refilterRemembered() {
	kept := c.remembered[:0]
	for _, e := range c.remembered {
		if c.Heap.InYoung(c.Heap.Field(e.obj, int(e.field))) {
			kept = append(kept, e)
		}
	}
	c.remembered = kept
	for k := range c.remIndex {
		delete(c.remIndex, k)
	}
	for i, e := range c.remembered {
		c.remIndex[remKey{obj: e.obj, field: e.field}] = i
	}
}

// resetRemembered clears the set for a major collection's rebuild: the
// major's own trace re-records every old→young edge it observes, with
// post-collection addresses, so barrier history (and any force-major
// condition) is discharged.
func (c *Collector) resetRemembered() {
	c.remembered = c.remembered[:0]
	for k := range c.remIndex {
		delete(c.remIndex, k)
	}
	c.genForceMajor = false
}

// RememberedLen returns the remembered set's population (tests,
// telemetry).
func (c *Collector) RememberedLen() int { return len(c.remembered) }

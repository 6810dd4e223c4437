package gc

// The collection fast path makes the Compiled strategy actually compiled
// at pause time. The baseline collector, faithful to the paper's
// presentation, still re-derived everything per frame per collection:
// the gc_word was decoded from the instruction stream for every frame, a
// polymorphic frame's []TypeGC and outgoing package were rebuilt through
// the hash-consing builder (memo keys under a mutex) for every frame of
// every collection, and every traced word paid a Trace interface call.
// For the dominant workload shape — deep recursive stacks of one function
// at one instantiation over list/tree structure — all of that work is
// identical across frames and across collections.
//
// Three caches remove it:
//
//   - A pc→site lookup cache (Collector.siteCache): the resolved site
//     index for each return address, filled on first decode and then a
//     single atomic load. Workers share it lock-free.
//   - A frame-plan cache (planCache): keyed by (site, identity of the
//     incoming type instantiation), memoizing the fully resolved frame
//     routine — per-slot TypeGC, the specialized kernel chosen for each
//     slot, the call-argument map minus slots the frame walk already
//     covers, and the outgoing package handed to the callee. A tower of N
//     equal frames resolves its types once, not N times per collection.
//   - Specialized trace kernels: flattened iterative loops for the
//     dominant ground shapes (const, ref-of-const, tuple-of-const,
//     const-payload data spines such as int lists) selected at plan-build
//     time, replacing recursive Trace interface dispatch per word.
//
// All three are read lock-free during parallel collection: the plan cache
// and the TypeGC builder keep an immutable snapshot map (promoted before
// each parallel phase) consulted without locking, with a mutex-guarded
// dirty map behind it for misses. Collector.DisableFastPath restores the
// uncached per-frame resolution — the differential suite's oracle — and
// the fast path is required (and tested) to produce bit-identical heaps.

import (
	"sync/atomic"

	"tagfree/internal/code"
)

// ---------------------------------------------------------------------------
// slotSet: per-frame slot membership without the O(slots²) linear scan.
// ---------------------------------------------------------------------------

// slotSet tracks which frame slots have been traced. Frames are usually
// narrow, so the first 64 slots live in one word; wider frames (generated
// code with many temporaries) spill into a bitmap slice. Both membership
// test and insert are O(1), replacing the linear scan that made suspended
// wide frames quadratic.
type slotSet struct {
	small uint64
	big   []uint64
}

func (s *slotSet) add(slot int) {
	if slot < 64 {
		s.small |= 1 << uint(slot)
		return
	}
	w := slot/64 - 1
	for w >= len(s.big) {
		s.big = append(s.big, 0)
	}
	s.big[w] |= 1 << uint(slot%64)
}

func (s *slotSet) has(slot int) bool {
	if slot < 64 {
		return s.small&(1<<uint(slot)) != 0
	}
	w := slot/64 - 1
	return w < len(s.big) && s.big[w]&(1<<uint(slot%64)) != 0
}

// ---------------------------------------------------------------------------
// Kernels: flattened trace loops for the dominant ground shapes.
// ---------------------------------------------------------------------------

// kernel selects the specialized trace loop for one slot, chosen once at
// plan-build time by classify.
type kernel uint8

const (
	// kGeneric falls back to TypeGC.Trace interface dispatch.
	kGeneric kernel = iota
	// kConst: unboxed value, nothing to trace.
	kConst
	// kRefConst: a ref cell whose element is unboxed — copy one object,
	// no field tracing.
	kRefConst
	// kTupleFlat: a tuple of all-unboxed fields — copy one object whose
	// field words are already correct verbatim.
	kTupleFlat
	// kBoxFlat: a fixed tree of flat boxes — a tuple (or ref) whose boxed
	// fields are themselves flat boxes all the way down (nested flat
	// tuples, refs of flat tuples). Traced by a precomputed boxKernel with
	// no per-field dispatch.
	kBoxFlat
	// kSpineFlat: a datatype whose boxed constructors carry unboxed
	// payload fields, flat-box payload fields, and self-recursive fields
	// (int lists, lists of flat tuples, enums with data, binary trees) —
	// an iterative loop over the rightmost spine with direct recursion
	// into the other self-recursive fields and boxKernel copies for the
	// boxed payloads, zero per-field dispatch.
	kSpineFlat
)

// boxKernel is the precomputed layout of a fixed "flat box": an object of
// size words whose fields are unboxed except subs, each itself a flat box.
type boxKernel struct {
	size int
	subs []boxSub
}

// boxSub is one boxed field of a flat box: its offset, the field's routine
// (for the generational write barrier), and its own layout.
type boxSub struct {
	off int
	g   TypeGC
	box *boxKernel
}

// flatBox builds the boxKernel for a routine, or nil when the shape is not
// a fixed tree of flat boxes. Only tuples and refs recurse, so the shape
// is a finite type tree and the recursion terminates.
func (c *Collector) flatBox(g TypeGC) *boxKernel {
	switch g := g.(type) {
	case *tupleG:
		bk := &boxKernel{size: len(g.fields)}
		for i, f := range g.fields {
			if _, ok := f.(*constG); ok {
				continue
			}
			sub := c.flatBox(f)
			if sub == nil {
				return nil
			}
			bk.subs = append(bk.subs, boxSub{off: i, g: f, box: sub})
		}
		return bk
	case *refG:
		bk := &boxKernel{size: 1}
		if _, ok := g.elem.(*constG); ok {
			return bk
		}
		sub := c.flatBox(g.elem)
		if sub == nil {
			return nil
		}
		bk.subs = append(bk.subs, boxSub{off: 0, g: g.elem, box: sub})
		return bk
	}
	return nil
}

// sfKind distinguishes the non-const work a spine step performs.
type sfKind uint8

const (
	// sfSelf recurses the spine routine itself (a tree child).
	sfSelf sfKind = iota
	// sfBox copies a flat-box payload through its boxKernel.
	sfBox
	// sfPrune writes the PrunedWord sentinel instead of tracing: the
	// heap-liveness verdict proved the payload unreachable through this
	// access path (classifyPrune kernels only; see tracePrune).
	sfPrune
)

// spineField is one non-const, non-tail field of a spine constructor, in
// field order (matching dataG.Trace's dispatch order exactly).
type spineField struct {
	off  int
	kind sfKind
	g    TypeGC     // the field's routine, for the write barrier
	box  *boxKernel // sfBox only
}

// spineKernel is the precomputed per-tag layout a kSpineFlat loop needs:
// the visited object size, the recursive tail field offset (-1 for a
// terminal constructor) iterated without growing the Go stack, and the
// remaining traced fields in field order. All offsets include the optional
// tag word.
type spineKernel struct {
	hasTag bool
	size   []int
	tail   []int
	steps  [][]spineField
}

// classify picks the kernel for a routine. Classification reads the same
// constructor shapes Trace would, so it builds no nodes Trace would not.
func (c *Collector) classify(g TypeGC) (kernel, *spineKernel, *boxKernel) {
	switch g := g.(type) {
	case *constG:
		return kConst, nil, nil
	case *refG:
		if _, ok := g.elem.(*constG); ok {
			return kRefConst, nil, nil
		}
		if bk := c.flatBox(g); bk != nil {
			return kBoxFlat, nil, bk
		}
	case *tupleG:
		if bk := c.flatBox(g); bk != nil {
			if len(bk.subs) == 0 {
				return kTupleFlat, nil, nil
			}
			return kBoxFlat, nil, bk
		}
	case *dataG:
		if sk := c.spineKernelFor(g, false); sk != nil {
			return kSpineFlat, sk, nil
		}
	}
	return kGeneric, nil, nil
}

// classifyPrune builds the spine-only pruning kernel for a routine, or nil
// when pruning does not apply. It is more permissive than classify: every
// non-const, non-self field is pruned (sentinel-overwritten) rather than
// traced, so payload shape does not matter.
func (c *Collector) classifyPrune(g TypeGC) *spineKernel {
	if dg, ok := g.(*dataG); ok {
		return c.spineKernelFor(dg, true)
	}
	return nil
}

// spineKernelFor lays out the kSpineFlat loop for a datatype from its
// constructor shapes, or returns nil when a payload field needs generic
// dispatch. Hash-consing makes node identity instantiation identity, so a
// field routine equal to g is exactly "this datatype at this
// instantiation": as the last field it iterates as the spine (the shape's
// tail), anywhere else (tree children) it recurses. Every other non-const
// field must be a flat box — or, for a pruning kernel, is pruned whatever
// its shape. Pruning's one refusal is a same-datatype field at a
// *different* instantiation (non-regular recursion): the compile-side
// analysis treats any same-datatype field as a spine step, so pruning it
// would sever a spine the program may still walk.
func (c *Collector) spineKernelFor(g *dataG, prune bool) *spineKernel {
	n := len(g.layout.Boxed)
	sk := &spineKernel{hasTag: g.layout.HasTagWord, size: make([]int, n), tail: make([]int, n), steps: make([][]spineField, n)}
	for tag := range g.layout.Boxed {
		sh := g.ctor(c, tag)
		sk.size[tag] = sh.size()
		sk.tail[tag] = -1
		if sh.tail >= 0 {
			sk.tail[tag] = sh.off + sh.tail
		}
		for i, f := range sh.fields {
			step := spineField{off: sh.off + i, g: f}
			fdg, _ := f.(*dataG)
			_, isConst := f.(*constG)
			switch {
			case isConst || i == sh.tail:
				continue
			case fdg == g:
				step.kind = sfSelf
			case prune && fdg != nil && fdg.layoutID == g.layoutID:
				return nil // non-regular recursion: the analysis calls this a spine step
			case prune:
				step.kind = sfPrune
			default:
				step.kind = sfBox
				if step.box = c.flatBox(f); step.box == nil {
					return nil
				}
			}
			sk.steps[tag] = append(sk.steps[tag], step)
		}
	}
	return sk
}

// traceKernel traces one root through its specialized loop (or the generic
// Trace for kGeneric). It mutates the heap exactly as Trace would — same
// visit order, same copies — so fast-path heaps stay bit-identical to the
// oracle's. st receives the object/word counters (c.Stats on the serial
// and ordered-trace paths; a worker-local block during parallel marking
// never reaches here — see markKernel).
func (c *Collector) traceKernel(ps *planSlot, w code.Word, st *Stats) code.Word {
	switch ps.k {
	case kConst:
		return w
	case kRefConst:
		if !code.IsBoxedValue(c.Heap.Repr, w) {
			return w
		}
		nw, fresh := c.Heap.VisitObject(w, 1)
		if fresh {
			st.ObjectsCopied++
			st.KernelWords++
		}
		return nw
	case kTupleFlat:
		if !code.IsBoxedValue(c.Heap.Repr, w) {
			return w
		}
		n := len(ps.g.(*tupleG).fields)
		nw, fresh := c.Heap.VisitObject(w, n)
		if fresh {
			st.ObjectsCopied++
			st.KernelWords += int64(n)
		}
		return nw
	case kBoxFlat:
		return c.traceBox(ps.box, w, st)
	case kSpineFlat:
		return c.traceSpine(ps.spine, ps.g, w, st)
	}
	return ps.g.Trace(c, w)
}

// traceBox copies one flat box and its sub-boxes — tupleG/refG.Trace minus
// the per-field dispatch. Sub-boxes are visited in field order, exactly
// where Trace would dispatch on them, so heaps stay bit-identical.
func (c *Collector) traceBox(bk *boxKernel, w code.Word, st *Stats) code.Word {
	if !code.IsBoxedValue(c.Heap.Repr, w) {
		return w
	}
	nw, fresh := c.Heap.VisitObject(w, bk.size)
	if !fresh {
		return nw
	}
	st.ObjectsCopied++
	st.KernelWords += int64(bk.size)
	for i := range bk.subs {
		s := &bk.subs[i]
		c.setField(nw, s.off, c.traceBox(s.box, c.Heap.Field(nw, s.off), st), s.g)
	}
	return nw
}

// markBox is traceBox's read-only twin for parallel mark/sweep marking.
// Returns the words newly marked.
func (c *Collector) markBox(bk *boxKernel, w code.Word, st *Stats) int64 {
	if !code.IsBoxedValue(c.Heap.Repr, w) {
		return 0
	}
	if _, fresh := c.Heap.VisitShared(w, bk.size); !fresh {
		return 0
	}
	st.ObjectsCopied++
	st.KernelWords += int64(bk.size)
	words := int64(bk.size)
	for i := range bk.subs {
		words += c.markBox(bk.subs[i].box, c.Heap.Field(w, bk.subs[i].off), st)
	}
	return words
}

// traceSpine is the flattened loop for const-payload data spines: visit,
// link the previous copy's tail, advance — dataG.Trace minus the per-field
// Trace dispatch (payload words are correct verbatim after the copy). g is
// the spine's own routine, threaded through for the generational tail-link
// barrier (setField).
func (c *Collector) traceSpine(sk *spineKernel, g TypeGC, w code.Word, st *Stats) code.Word {
	head := code.Word(0)
	haveHead := false
	var prevPtr code.Word // last copied object; its tail field awaits a link
	prevField := -1
	link := func(v code.Word) {
		if prevField >= 0 {
			c.setField(prevPtr, prevField, v, g) // the tail field's routine is g itself
		} else if !haveHead {
			head = v
			haveHead = true
		}
	}
	for {
		if !code.IsBoxedValue(c.Heap.Repr, w) {
			link(w)
			return head0(head, haveHead, w)
		}
		tag := 0
		if sk.hasTag {
			tag = int(code.DecodeInt(c.Heap.Repr, c.Heap.Field(w, 0)))
		}
		nw, fresh := c.Heap.VisitObject(w, sk.size[tag])
		link(nw)
		if !fresh {
			return head0(head, haveHead, nw)
		}
		st.ObjectsCopied++
		st.KernelWords += int64(sk.size[tag])
		// Non-tail, non-const fields run in field order, exactly where
		// dataG.Trace would dispatch on them: tree children recurse the
		// spine, flat-box payloads copy through their boxKernel, and a
		// pruning kernel's dead payloads are sentinel-overwritten (the
		// liveness-guided trace; drained only after every full root — see
		// drainPrune — so an already-visited object stops the walk before
		// anything a live path reached is pruned).
		for i := range sk.steps[tag] {
			f := &sk.steps[tag][i]
			switch f.kind {
			case sfSelf:
				c.setField(nw, f.off, c.traceSpine(sk, g, c.Heap.Field(nw, f.off), st), g)
			case sfBox:
				c.setField(nw, f.off, c.traceBox(f.box, c.Heap.Field(nw, f.off), st), f.g)
			case sfPrune:
				c.setField(nw, f.off, code.PrunedWord, f.g)
				st.PrunedWords++
			}
		}
		t := sk.tail[tag]
		if t < 0 {
			return head0(head, haveHead, nw)
		}
		prevPtr, prevField = nw, t
		w = c.Heap.Field(nw, t)
	}
}

// markKernel is traceKernel's read-only twin for parallel mark/sweep
// collection: objects are claimed through VisitShared's compare-and-swap
// and no heap or stack word is written. It returns the words newly marked.
func (c *Collector) markKernel(ps *planSlot, w code.Word, st *Stats) int64 {
	repr := c.Heap.Repr
	switch ps.k {
	case kConst:
		return 0
	case kRefConst:
		if !code.IsBoxedValue(repr, w) {
			return 0
		}
		if _, fresh := c.Heap.VisitShared(w, 1); !fresh {
			return 0
		}
		st.ObjectsCopied++
		st.KernelWords++
		return 1
	case kTupleFlat:
		if !code.IsBoxedValue(repr, w) {
			return 0
		}
		n := len(ps.g.(*tupleG).fields)
		if _, fresh := c.Heap.VisitShared(w, n); !fresh {
			return 0
		}
		st.ObjectsCopied++
		st.KernelWords += int64(n)
		return int64(n)
	case kBoxFlat:
		return c.markBox(ps.box, w, st)
	case kSpineFlat:
		return c.markSpine(ps.spine, w, st)
	}
	return c.markValue(ps.g, w, st)
}

// markSpine is traceSpine's read-only twin: claim each spine object
// through VisitShared, recurse into the non-tail self-recursive fields,
// iterate the tail. Returns the words newly marked.
func (c *Collector) markSpine(sk *spineKernel, w code.Word, st *Stats) int64 {
	repr := c.Heap.Repr
	var words int64
	for code.IsBoxedValue(repr, w) {
		tag := 0
		if sk.hasTag {
			tag = int(code.DecodeInt(repr, c.Heap.Field(w, 0)))
		}
		if _, fresh := c.Heap.VisitShared(w, sk.size[tag]); !fresh {
			break
		}
		st.ObjectsCopied++
		st.KernelWords += int64(sk.size[tag])
		words += int64(sk.size[tag])
		for i := range sk.steps[tag] {
			f := &sk.steps[tag][i]
			switch f.kind {
			case sfSelf:
				words += c.markSpine(sk, c.Heap.Field(w, f.off), st)
			case sfBox:
				words += c.markBox(f.box, c.Heap.Field(w, f.off), st)
			default:
				// Pruning kernels never reach the read-only mark path
				// (pruning is serial-only); mark conservatively if one does.
				words += c.markValue(f.g, c.Heap.Field(w, f.off), st)
			}
		}
		t := sk.tail[tag]
		if t < 0 {
			break
		}
		w = c.Heap.Field(w, t)
	}
	return words
}

// ---------------------------------------------------------------------------
// Frame-plan cache.
// ---------------------------------------------------------------------------

// planSlot is one resolved slot of a frame plan.
type planSlot struct {
	slot  int
	g     TypeGC
	k     kernel
	spine *spineKernel
	box   *boxKernel
	// prune, when non-nil, is the spine-only pruning kernel for a slot
	// whose heap-liveness verdict at this site is spine-only; the serial
	// trace defers such slots and drains them after every full root
	// (drainPrune). pruneAtCall is the variant for a frame suspended
	// *before* its call: an argument slot's full Args verdict overrides
	// the after-call Live verdict there, because the call re-executes on
	// resume and the callee's own demand applies.
	prune       *spineKernel
	pruneAtCall *spineKernel
}

// framePlan is a fully resolved frame routine for one (site, incoming
// type instantiation): the slot routines with their kernels, the
// suspended-call argument map minus slots the frame walk already covers
// (the per-frame dedupe, computed once), and the outgoing package. The
// trace fields are immutable after construction and shared freely across
// frames, collections and workers; edges is the one mutable member, a
// copy-on-write map filled as towers are walked (see planForEdge).
type framePlan struct {
	slots []planSlot
	args  []planSlot
	out   pkg

	// edges caches, per callee gc_word index, the plan the *next* frame
	// resolves to when this plan is the caller. A caller plan pins the
	// caller's instantiation, the outgoing package is part of the plan,
	// and a non-closure callee's type arguments are a pure function of
	// that package — so (caller plan, callee site) determines the callee
	// plan, and a warmed tower of mixed frames (mutual recursion, a call
	// chain the one-entry inline cache thrashes on) resolves in O(1) per
	// frame: no type-argument resolution, no plan-key hashing.
	edges atomic.Pointer[map[int]*framePlan]
}

// edge returns the cached callee plan for a callee site, or nil. The edge
// the walk took last is checked before the map: a tower of one recursive
// site takes the same edge at every frame, and pays a pointer compare for it.
func (p *framePlan) edge(ic *planIC, site int) *framePlan {
	if ic.from == p && ic.via == site {
		return ic.to
	}
	if m := p.edges.Load(); m != nil {
		if to := (*m)[site]; to != nil {
			ic.from, ic.via, ic.to = p, site, to
			return to
		}
	}
	return nil
}

// addEdge publishes a callee edge copy-on-write. Racing workers may build
// the map twice; plans for one key are interchangeable, so whichever swap
// wins is correct, and the loser retries against the winner's map.
func (p *framePlan) addEdge(site int, callee *framePlan) {
	for {
		old := p.edges.Load()
		if old != nil {
			if _, ok := (*old)[site]; ok {
				return
			}
		}
		m := make(map[int]*framePlan, 1)
		if old != nil {
			m = make(map[int]*framePlan, len(*old)+1)
			for k, v := range *old {
				m[k] = v
			}
		}
		m[site] = callee
		if p.edges.CompareAndSwap(old, &m) {
			return
		}
	}
}

// maxPlanTypeArgs bounds the inline plan key. Frames instantiated with
// more type arguments (rare: none of the corpus exceeds two) resolve
// uncached, counted as plan misses.
const maxPlanTypeArgs = 4

// planKey identifies a frame plan: the site plus the gcIDs of the
// incoming type arguments (node identity is instantiation identity — the
// builder hash-conses equal types to one node).
type planKey struct {
	site int32
	n    int8
	ids  [maxPlanTypeArgs]int32
}

// planIC is a one-entry inline cache in front of planFor, local to one
// task's stack walk: a tower of N equal frames — deep recursion over one
// instantiation, the dominant deep-stack shape — hits it N-1 times,
// skipping even the snapshot map's hash per frame. Type-argument equality
// is interface identity (hash-consing makes node identity instantiation
// identity).
type planIC struct {
	site  int
	targs []TypeGC
	plan  *framePlan
	// The last edge taken (framePlan.edge): caller plan, callee site, callee
	// plan. Walk-local like the rest, so it needs no publication.
	from, to *framePlan
	via      int
}

func (ic *planIC) match(site int, targs []TypeGC) bool {
	if ic.plan == nil || ic.site != site || len(ic.targs) != len(targs) {
		return false
	}
	for i := range targs {
		if targs[i] != ic.targs[i] {
			return false
		}
	}
	return true
}

// planForIC resolves a frame plan through the walk-local inline cache,
// falling back to the shared memo table.
func (c *Collector) planForIC(ic *planIC, siteIdx int, site *code.SiteInfo, targs []TypeGC, st *Stats) *framePlan {
	if ic.match(siteIdx, targs) {
		st.PlanHits++
		return ic.plan
	}
	p := c.planFor(siteIdx, site, targs, st)
	ic.site, ic.targs, ic.plan = siteIdx, targs, p
	return p
}

// planForEdge resolves a frame's plan during a stack walk, consulting the
// caller plan's edge cache first. An edge hit skips type-argument
// resolution and the plan-key hash entirely; closure-called frames
// (TypeSourceEnv) read their instantiation out of the closure's rep words
// on the heap, so their plans can differ per frame at one site and are
// never edge-cached.
func (c *Collector) planForEdge(prev *framePlan, ic *planIC, siteIdx int, site *code.SiteInfo, fi *code.FuncInfo, incoming pkg, stack []code.Word, fp int, sc *scratch, st *Stats) *framePlan {
	cacheable := prev != nil && fi.TypeSource != code.TypeSourceEnv
	if cacheable {
		if p := prev.edge(ic, siteIdx); p != nil {
			st.PlanHits++
			return p
		}
	}
	targs := c.frameTypeArgs(fi, incoming, stack, fp, sc)
	p := c.planForIC(ic, siteIdx, site, targs, st)
	if cacheable {
		prev.addEdge(siteIdx, p)
		ic.from, ic.via, ic.to = prev, siteIdx, p
	}
	return p
}

// planFor returns the memoized frame plan for (site, targs), building and
// publishing it on first use. st takes the hit/miss counters (worker-local
// during parallel resolution).
func (c *Collector) planFor(siteIdx int, site *code.SiteInfo, targs []TypeGC, st *Stats) *framePlan {
	if len(targs) > maxPlanTypeArgs {
		st.PlanMisses++
		return c.buildPlan(siteIdx, site, targs)
	}
	key := planKey{site: int32(siteIdx), n: int8(len(targs))}
	for i, g := range targs {
		if g != nil {
			key.ids[i] = int32(g.gcID())
		} else {
			key.ids[i] = -1
		}
	}
	if p, ok := c.plans.get(key); ok {
		st.PlanHits++
		return p
	}
	// Build outside the lock: construction reaches into the TypeGC
	// builder, and a slow build must not serialize unrelated lookups.
	// A racing duplicate build is harmless — plans for one key are
	// interchangeable — but only one wins publication.
	st.PlanMisses++
	p := c.buildPlan(siteIdx, site, targs)
	return c.plans.add(key, func() *framePlan { return p })
}

// buildPlan resolves one frame routine completely: slot routines with
// kernels, the deduplicated suspended-call argument map, and the outgoing
// package (built eagerly so published plans are immutable).
func (c *Collector) buildPlan(siteIdx int, site *code.SiteInfo, targs []TypeGC) *framePlan {
	p := &framePlan{}
	var seen slotSet
	for _, tr := range c.compiledSites[siteIdx] {
		g := tr.ground
		if g == nil {
			g = c.FromDesc(tr.desc, targs)
		}
		k, sp, bk := c.classify(g)
		ps := planSlot{slot: tr.slot, g: g, k: k, spine: sp, box: bk}
		if tr.spine {
			if pk := c.classifyPrune(g); pk != nil {
				ps.prune, ps.pruneAtCall = pk, pk
				for _, e := range site.Args {
					// A full Args verdict for the same slot wins at
					// suspended-call frames: the callee re-demands it.
					if e.Slot == tr.slot && !e.Spine {
						ps.pruneAtCall = nil
						break
					}
				}
			}
		}
		p.slots = append(p.slots, ps)
		seen.add(tr.slot)
	}
	for _, e := range site.Args {
		if seen.has(e.Slot) {
			continue
		}
		g := c.FromDesc(e.Desc, targs)
		k, sp, bk := c.classify(g)
		ps := planSlot{slot: e.Slot, g: g, k: k, spine: sp, box: bk}
		if e.Spine {
			if pk := c.classifyPrune(g); pk != nil {
				ps.prune, ps.pruneAtCall = pk, pk
			}
		}
		p.args = append(p.args, ps)
	}
	p.out = c.outgoing(site, targs)
	return p
}

// tracePlan runs one frame's plan over the stack (the serial collector's
// compiled fast path). When liveness-guided pruning is armed for this
// collection (pruneOn), slots with a spine-only verdict are deferred to
// the prune queue instead of traced — every full root must run first so
// the pruning walk stops at anything a live path reached (drainPrune).
func (c *Collector) tracePlan(p *framePlan, stack []code.Word, base int, atCall bool) {
	for i := range p.slots {
		ps := &p.slots[i]
		if c.pruneOn {
			pk := ps.prune
			if atCall {
				pk = ps.pruneAtCall
			}
			if pk != nil {
				c.pruneQ = append(c.pruneQ, pruneItem{stack: stack, idx: base + ps.slot, g: ps.g, sk: pk})
				c.Stats.SlotsTraced++
				continue
			}
		}
		stack[base+ps.slot] = c.traceKernel(ps, stack[base+ps.slot], &c.Stats)
		c.Stats.SlotsTraced++
	}
	if atCall {
		for i := range p.args {
			ps := &p.args[i]
			if c.pruneOn && ps.prune != nil {
				c.pruneQ = append(c.pruneQ, pruneItem{stack: stack, idx: base + ps.slot, g: ps.g, sk: ps.prune})
				c.Stats.SlotsTraced++
				continue
			}
			stack[base+ps.slot] = c.traceKernel(ps, stack[base+ps.slot], &c.Stats)
			c.Stats.SlotsTraced++
		}
	}
}

// ---------------------------------------------------------------------------
// pc→site lookup cache.
// ---------------------------------------------------------------------------

// siteAtFast resolves the site at pc through the lookup cache: one atomic
// load on a hit, the instruction-stream decode (siteAt) on first touch.
// Entries are siteIdx+1 so the zero value means unfilled; concurrent
// workers may race to fill an entry with the same value, which the atomic
// store keeps benign.
func (c *Collector) siteAtFast(pc int, st *Stats) (int, *code.SiteInfo) {
	if c.DisableFastPath || c.siteCache == nil {
		return c.siteAt(pc)
	}
	if v := atomic.LoadInt32(&c.siteCache[pc]); v > 0 {
		st.SiteCacheHits++
		return int(v - 1), c.Prog.Sites[v-1]
	}
	st.SiteCacheMisses++
	idx, si := c.siteAt(pc)
	atomic.StoreInt32(&c.siteCache[pc], int32(idx+1))
	return idx, si
}

// planned reports whether roots trace through frame plans and kernels: the
// compiled strategy with the fast path on.
func (c *Collector) planned() bool { return c.Strat == StratCompiled && !c.DisableFastPath }

// prepareFastPath promotes the memo-table and plan-cache snapshots so the
// parallel phase's workers read both lock-free — the "pre-resolve before
// the pause's parallel phase" step. Promotion is O(entries) and skipped
// when nothing new was built since the last collection.
func (c *Collector) prepareFastPath() {
	if c.DisableFastPath {
		return
	}
	c.b.nodes.promote()
	c.b.caps.promote()
	c.plans.promote()
}

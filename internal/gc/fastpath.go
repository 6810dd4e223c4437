package gc

// The collection fast path makes the Compiled strategy actually compiled
// at pause time. The baseline collector, faithful to the paper's
// presentation, still re-derived everything per frame per collection:
// the gc_word was decoded from the instruction stream for every frame, a
// polymorphic frame's []TypeGC and outgoing package were rebuilt through
// the hash-consing builder for every frame of every collection, and every
// traced word paid a Trace interface call.
// For the dominant workload shape — deep recursive stacks of one function
// at one instantiation over list/tree structure — all of that work is
// identical across frames and across collections.
//
// Three caches remove it:
//
//   - A pc→site lookup cache (Collector.siteCache): the resolved site
//     index for each return address, filled on first decode and then a
//     single load.
//   - A frame-plan cache (planCache): keyed by (site, identity of the
//     incoming type instantiation), memoizing the fully resolved frame
//     routine — per-slot TypeGC, the specialized kernel chosen for each
//     slot, the call-argument map minus slots the frame walk already
//     covers, and the outgoing package handed to the callee. A tower of N
//     equal frames resolves its types once, not N times per collection.
//   - Specialized trace kernels: flattened iterative loops for the
//     dominant ground shapes (const, ref-of-const, tuple-of-const,
//     const-payload data spines such as int lists) selected at plan-build
//     time, replacing recursive Trace interface dispatch per word. Like
//     Trace they run under the collector's tracer (typegc.go).
//
// Plans and kernels only ever reach a trace as root jobs (taskJobs,
// roots.go): a plan slot becomes a job carrying its routine and kernel.
//
// Collector.DisableFastPath restores the uncached per-frame resolution —
// the differential suite's oracle — and the fast path is required (and
// tested) to produce bit-identical heaps.

import "tagfree/internal/code"

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

// routine is one root's resolved trace: the type_gc routine and the
// specialized loop classify chose for it (kGeneric, with no layout, when the
// fast path is off or the shape needs full dispatch).
type routine struct {
	g     TypeGC
	k     kernel
	spine *spineKernel
	box   *boxKernel
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
		if sk := c.spineKernelFor(g); sk != nil {
			return kSpineFlat, sk, nil
		}
	}
	return kGeneric, nil, nil
}

// classified is g with the kernel classify picks for it.
func (c *Collector) classified(g TypeGC) routine {
	k, sk, bk := c.classify(g)
	return routine{g: g, k: k, spine: sk, box: bk}
}

// spineKernelFor lays out the kSpineFlat loop for a datatype from its
// constructor shapes, or returns nil when a payload field needs generic
// dispatch. Hash-consing makes node identity instantiation identity, so a
// field routine equal to g is exactly "this datatype at this
// instantiation": as the last field it iterates as the spine (the shape's
// tail), anywhere else (tree children) it recurses. Every other non-const
// field must be a flat box.
func (c *Collector) spineKernelFor(g *dataG) *spineKernel {
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

// kernel traces one root through its specialized loop (or the generic Trace
// for kGeneric). It visits and stores exactly as Trace would — same order,
// same copies — so fast-path heaps stay bit-identical to the oracle's.
func (t *tracer) kernel(r *routine, w code.Word) code.Word {
	n := 1
	switch r.k {
	case kGeneric:
		return r.g.Trace(t, w)
	case kConst:
		return w
	case kBoxFlat:
		return t.box(r.box, w)
	case kSpineFlat:
		return t.spine(r.spine, r.g, w)
	case kTupleFlat:
		n = len(r.g.(*tupleG).fields)
	}
	// kRefConst, kTupleFlat: one object whose fields are correct verbatim.
	if !code.IsBoxedValue(t.c.Heap.Repr, w) {
		return w
	}
	nw, fresh := t.visit(w, n)
	if fresh {
		t.c.Stats.ObjectsCopied++
		t.c.Stats.KernelWords += int64(n)
	}
	return nw
}

// box claims one flat box and its sub-boxes — tupleG/refG.Trace minus the
// per-field dispatch. Sub-boxes are visited in field order, exactly where
// Trace would dispatch on them, so heaps stay bit-identical.
func (t *tracer) box(bk *boxKernel, w code.Word) code.Word {
	if !code.IsBoxedValue(t.c.Heap.Repr, w) {
		return w
	}
	nw, fresh := t.visit(w, bk.size)
	if !fresh {
		return nw
	}
	t.c.Stats.ObjectsCopied++
	t.c.Stats.KernelWords += int64(bk.size)
	for i := range bk.subs {
		s := &bk.subs[i]
		was := t.claim.Field(nw, s.off)
		t.setField(nw, s.off, was, t.box(s.box, was), s.g)
	}
	return nw
}

// spine is the flattened loop for data spines: visit, link the previous
// copy's tail, advance — dataG.Trace minus the per-field Trace dispatch
// (payload words are correct verbatim after the copy). g is the spine's own
// routine, threaded through for the generational tail-link barrier
// (setField).
func (t *tracer) spine(sk *spineKernel, g TypeGC, w code.Word) code.Word {
	c := t.c
	head := code.Word(0)
	haveHead := false
	var prevPtr code.Word // last copied object; its tail field awaits a link
	prevField := -1
	link := func(v code.Word) {
		if prevField >= 0 {
			// The tail field held w, the word this step visits, and its
			// routine is g itself.
			t.setField(prevPtr, prevField, w, v, g)
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
			tag = int(code.DecodeInt(c.Heap.Repr, t.claim.Field(w, 0)))
		}
		nw, fresh := t.visit(w, sk.size[tag])
		link(nw)
		if !fresh {
			return head0(head, haveHead, nw)
		}
		c.Stats.ObjectsCopied++
		c.Stats.KernelWords += int64(sk.size[tag])
		// Non-tail, non-const fields run in field order, exactly where
		// dataG.Trace would dispatch on them: tree children recurse the
		// spine and flat-box payloads copy through their boxKernel.
		for i := range sk.steps[tag] {
			f := &sk.steps[tag][i]
			was := t.claim.Field(nw, f.off)
			switch f.kind {
			case sfSelf:
				t.setField(nw, f.off, was, t.spine(sk, g, was), g)
			case sfBox:
				t.setField(nw, f.off, was, t.box(f.box, was), f.g)
			}
		}
		tl := sk.tail[tag]
		if tl < 0 {
			return head0(head, haveHead, nw)
		}
		prevPtr, prevField = nw, tl
		w = t.claim.Field(nw, tl)
	}
}

// ---------------------------------------------------------------------------
// Frame-plan cache.
// ---------------------------------------------------------------------------

// planSlot is one resolved slot of a frame plan.
type planSlot struct {
	slot int
	routine
}

// job is the slot as a root of the frame at base.
func (ps *planSlot) job(base int) rootJob {
	return rootJob{idx: base + ps.slot, routine: ps.routine}
}

// framePlan is a fully resolved frame routine for one (site, incoming
// type instantiation): the slot routines with their kernels, the
// suspended-call argument map minus slots the frame walk already covers
// (the per-frame dedupe, computed once), and the outgoing package. The
// trace fields are immutable after construction and shared freely across
// frames and collections; edges is the one mutable member, filled as towers
// are walked (see planForEdge).
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
	edges map[int]*framePlan
}

// edge returns the cached callee plan for a callee site, or nil. The edge
// the walk took last is checked before the map: a tower of one recursive
// site takes the same edge at every frame, and pays a pointer compare for it.
func (p *framePlan) edge(ic *planIC, site int) *framePlan {
	if ic.from == p && ic.via == site {
		return ic.to
	}
	if to := p.edges[site]; to != nil {
		ic.from, ic.via, ic.to = p, site, to
		return to
	}
	return nil
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
// skipping even the plan map's hash per frame. Type-argument equality
// is interface identity (hash-consing makes node identity instantiation
// identity).
type planIC struct {
	site  int
	targs []TypeGC
	plan  *framePlan
	// The last edge taken (framePlan.edge): caller plan, callee site, callee
	// plan.
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
// falling back to the plan map.
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
func (c *Collector) planForEdge(prev *framePlan, ic *planIC, siteIdx int, site *code.SiteInfo, fi *code.FuncInfo, incoming pkg, stack []code.Word, fp int, st *Stats) *framePlan {
	cacheable := prev != nil && fi.TypeSource != code.TypeSourceEnv
	if cacheable {
		if p := prev.edge(ic, siteIdx); p != nil {
			st.PlanHits++
			return p
		}
	}
	targs := c.frameTypeArgs(fi, incoming, stack, fp)
	p := c.planForIC(ic, siteIdx, site, targs, st)
	if cacheable {
		if prev.edges == nil {
			prev.edges = map[int]*framePlan{}
		}
		prev.edges[siteIdx] = p
		ic.from, ic.via, ic.to = prev, siteIdx, p
	}
	return p
}

// planFor returns the memoized frame plan for (site, targs), building it on
// first use. st takes the hit/miss counters.
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
	if p, ok := c.plans[key]; ok {
		st.PlanHits++
		return p
	}
	st.PlanMisses++
	p := c.buildPlan(siteIdx, site, targs)
	c.plans[key] = p
	return p
}

// buildPlan resolves one frame routine completely: slot routines with
// kernels, the deduplicated suspended-call argument map, and the outgoing
// package (built eagerly so a plan's trace fields never change).
func (c *Collector) buildPlan(siteIdx int, site *code.SiteInfo, targs []TypeGC) *framePlan {
	p := &framePlan{}
	var seen slotSet
	for _, tr := range c.compiledSites[siteIdx] {
		g := tr.ground
		if g == nil {
			g = c.FromDesc(tr.desc, targs)
		}
		p.slots = append(p.slots, planSlot{slot: tr.slot, routine: c.classified(g)})
		seen.add(tr.slot)
	}
	for _, e := range site.Args {
		if seen.has(e.Slot) {
			continue
		}
		p.args = append(p.args, planSlot{slot: e.Slot, routine: c.classified(c.FromDesc(e.Desc, targs))})
	}
	p.out = c.outgoing(site, targs, nil) // a plan's package outlives the collection
	return p
}

// ---------------------------------------------------------------------------
// pc→site lookup cache.
// ---------------------------------------------------------------------------

// siteAtFast resolves the site at pc through the lookup cache: one load on
// a hit, the instruction-stream decode (siteAt) on first touch. Entries are
// siteIdx+1 so the zero value means unfilled.
func (c *Collector) siteAtFast(pc int, st *Stats) (int, *code.SiteInfo) {
	if c.DisableFastPath || c.siteCache == nil {
		return c.siteAt(pc)
	}
	if v := c.siteCache[pc]; v > 0 {
		st.SiteCacheHits++
		return int(v - 1), c.Prog.Sites[v-1]
	}
	st.SiteCacheMisses++
	idx, si := c.siteAt(pc)
	c.siteCache[pc] = int32(idx + 1)
	return idx, si
}

// planned reports whether roots trace through frame plans and kernels: the
// compiled strategy with the fast path on.
func (c *Collector) planned() bool { return c.Strat == StratCompiled && !c.DisableFastPath }

// Package gc implements garbage collection for the simulated heap under
// four strategies:
//
//   - Compiled (the paper's contribution): per-call-site frame routines,
//     prebuilt from compiler-emitted frame maps, trace exactly the live
//     slots; polymorphic frames receive type_gc_routines from their
//     caller's routine during an oldest→newest stack walk (§3).
//   - Interp (Branquart & Lewi 1970 / Britton 1975): the same maps are
//     serialized to compact byte descriptors and decoded during every
//     collection by a generic walker — smaller metadata, slower pauses.
//   - Appel (Appel 1989): one descriptor per procedure covering every
//     variable (no liveness), with polymorphic type resolution re-walking
//     the dynamic chain per frame (no incremental pass) — the design the
//     paper critiques in §1.1.1.
//   - Tagged: the classical baseline; per-word tag bits and object headers
//     drive a Cheney scan with no compiler metadata at all.
//
// TypeGC values are the runtime incarnation of the paper's
// type_gc_routines: structured, memoized closures (Figure 3's
// trace_list_of(const_gc) sharing) that both trace values and decompose
// into their components so callees can derive their type parameters from a
// call site's package (Figure 4).
package gc

import (
	"strconv"

	"tagfree/internal/code"
	"tagfree/internal/heap"
)

// TypeGC traces values of one type and decomposes into component routines.
type TypeGC interface {
	// Trace forwards the value (copying or marking any heap structure it
	// owns) and returns the new value.
	Trace(t *tracer, w code.Word) code.Word
	// Child returns the component routine selected by a derivation step.
	Child(step code.PathStep) TypeGC
	// gcID is the node's unique id within its builder (memoization key).
	gcID() int
}

// nodeKey identifies a hash-consed entry: its kind, an index (the datatype
// layout id; the function index of a capture list) and the ids of its
// children — node identity is type identity, so child ids stand for child
// types. Four ids sit inline, so the keys of ordinary types are built and
// compared without allocating; a wider tuple spills the rest into a string.
type nodeKey struct {
	kind  code.TDKind
	index int32
	n     int32
	ids   [4]int32
	spill string
}

func (k *nodeKey) push(id int) {
	if int(k.n) < len(k.ids) {
		k.ids[k.n] = int32(id)
	} else {
		k.spill = string(strconv.AppendInt(append([]byte(k.spill), ':'), int64(id), 10))
	}
	k.n++
}

func nodeKeyOf(kind code.TDKind, index int, children ...TypeGC) nodeKey {
	k := nodeKey{kind: kind, index: int32(index)}
	for _, ch := range children {
		k.push(ch.gcID())
	}
	return k
}

// builder hash-conses TypeGC nodes, mirroring the paper's observation that
// type_gc_routine closures for equal types are shared (Figure 3).
type builder struct {
	nodes map[nodeKey]TypeGC
	// caps memoizes closure capture routines (Collector.captures); its
	// entries are lists of nodes, not nodes, and do not count as Built.
	caps map[nodeKey][]TypeGC
	// Built counts constructor calls that created a new node (experiment
	// instrumentation: "type_gc closures constructed"); it doubles as the
	// id of the newest node.
	Built int64
}

func newBuilder() *builder {
	return &builder{nodes: map[nodeKey]TypeGC{}, caps: map[nodeKey][]TypeGC{}}
}

func (b *builder) memo(key nodeKey, mk func(id int) TypeGC) TypeGC {
	if g, ok := b.nodes[key]; ok {
		return g
	}
	b.Built++
	g := mk(int(b.Built))
	b.nodes[key] = g
	return g
}

// Const returns the routine for unboxed values (const_gc in the paper).
func (b *builder) Const() TypeGC {
	return b.memo(nodeKeyOf(code.TDConst, 0), func(id int) TypeGC { return &constG{id: id} })
}

// Ref returns the routine for reference cells.
func (b *builder) Ref(elem TypeGC) TypeGC {
	return b.memo(nodeKeyOf(code.TDRef, 0, elem), func(id int) TypeGC {
		return &refG{id: id, elem: elem, shape: shape{fields: []TypeGC{elem}, tail: -1}}
	})
}

// Tuple returns the routine for tuples. Like Data, it copies fields when it
// builds a node, so callers may resolve into a stack buffer.
func (b *builder) Tuple(fields []TypeGC) TypeGC {
	return b.memo(nodeKeyOf(code.TDTuple, 0, fields...), func(id int) TypeGC {
		return &tupleG{id: id, shape: shape{fields: append([]TypeGC(nil), fields...), tail: -1}}
	})
}

// Data returns the routine for a datatype instantiation (trace_list_of and
// friends).
func (b *builder) Data(layoutID int, layout *code.DataLayout, args []TypeGC) TypeGC {
	return b.memo(nodeKeyOf(code.TDData, layoutID, args...), func(id int) TypeGC {
		return &dataG{id: id, layoutID: layoutID, layout: layout, args: append([]TypeGC(nil), args...),
			ctors: make([]*shape, len(layout.Boxed))}
	})
}

// Arrow returns the routine for function values (Figure 4): it traces
// closures through their code pointers and offers dom/cod decomposition.
func (b *builder) Arrow(dom, cod TypeGC) TypeGC {
	return b.memo(nodeKeyOf(code.TDArrow, 0, dom, cod), func(id int) TypeGC {
		return &arrowG{id: id, dom: dom, cod: cod}
	})
}

// fromDescs resolves descriptors into buf, which callers point at a small
// stack array so resolving an already-built type allocates nothing.
func (c *Collector) fromDescs(buf []TypeGC, ds []*code.TypeDesc, env []TypeGC) []TypeGC {
	for _, d := range ds {
		buf = append(buf, c.FromDesc(d, env))
	}
	return buf
}

// FromDesc builds the routine for a compiler descriptor, resolving TDVar
// nodes against env (a frame's or datatype's type arguments).
func (c *Collector) FromDesc(d *code.TypeDesc, env []TypeGC) TypeGC {
	b := c.b
	var buf [4]TypeGC
	switch d.Kind {
	case code.TDConst, code.TDOpaque:
		return b.Const()
	case code.TDVar:
		if d.Index < len(env) && env[d.Index] != nil {
			return env[d.Index]
		}
		return b.Const()
	case code.TDRef:
		return b.Ref(c.FromDesc(d.Args[0], env))
	case code.TDTuple:
		return b.Tuple(c.fromDescs(buf[:0], d.Args, env))
	case code.TDData:
		return b.Data(d.Index, c.Prog.Data[d.Index], c.fromDescs(buf[:0], d.Args, env))
	case code.TDArrow:
		return b.Arrow(c.FromDesc(d.Args[0], env), c.FromDesc(d.Args[1], env))
	}
	panic("FromDesc: unknown descriptor kind")
}

// FromRep builds the routine for a runtime type-rep handle (stored in a
// closure's rep words at creation).
func (c *Collector) FromRep(h int) TypeGC {
	e := c.Prog.Reps.Entry(h)
	var buf [4]TypeGC
	children := buf[:0]
	for _, ch := range e.Children {
		children = append(children, c.FromRep(ch))
	}
	switch e.Kind {
	case code.TDConst, code.TDOpaque:
		return c.b.Const()
	case code.TDRef:
		return c.b.Ref(children[0])
	case code.TDTuple:
		return c.b.Tuple(children)
	case code.TDData:
		return c.b.Data(e.Index, c.Prog.Data[e.Index], children)
	case code.TDArrow:
		return c.b.Arrow(children[0], children[1])
	}
	panic("FromRep: unknown rep kind")
}

// ApplyPath walks a derivation path through a routine's components.
func ApplyPath(g TypeGC, path []code.PathStep) TypeGC {
	for _, s := range path {
		g = g.Child(s)
	}
	return g
}

// ---------------------------------------------------------------------------
// Node implementations.
// ---------------------------------------------------------------------------

// shape is one heap object's layout as its routine sees it: off immediate
// words (constructor tag; code pointer and rep words) followed by one word
// per field routine. tail is the index of a last field typed by the
// routine itself — a list's or tree's spine, which every walker iterates
// instead of recursing so long lists cost no host stack — or -1. Shapes
// are what make a node a closure over its components (Figure 3): resolved
// once and immutable after.
type shape struct {
	fields []TypeGC
	off    int
	tail   int
}

func (s *shape) size() int { return s.off + len(s.fields) }

// Trace is the whole routine of a node that is one fixed shape — a ref cell,
// a tuple, which embed theirs: claim the object, trace its fields in order.
func (s *shape) Trace(t *tracer, w code.Word) code.Word {
	if !code.IsBoxedValue(t.c.Heap.Repr, w) {
		return w
	}
	return t.object(s, w)
}

// shapeOf returns the shape of the object w under routine g, or false when
// there is no object to walk (an unboxed word, or a const-typed one that
// merely looks like a pointer).
func (c *Collector) shapeOf(g TypeGC, w code.Word) (shape, bool) {
	if !code.IsBoxedValue(c.Heap.Repr, w) {
		return shape{}, false // includes the null placeholder of a not-yet-patched recursive closure
	}
	switch g := g.(type) {
	case *constG:
		return shape{}, false
	case *refG:
		return g.shape, true
	case *tupleG:
		return g.shape, true
	case *dataG:
		return *g.ctor(c, g.tag(c, w)), true
	case *arrowG:
		// The function identity comes from the code pointer (field 0),
		// exactly the paper's "word preceding the code" lookup (§2.2).
		fidx := int(code.DecodeInt(c.Heap.Repr, c.Heap.Field(w, 0)))
		fi := c.Prog.Funcs[fidx]
		return shape{fields: c.captures(g, fidx, fi, w), off: 1 + fi.NumRepWords, tail: -1}, true
	}
	panic("gc: shapeOf: unknown TypeGC node")
}

// tracer is the trace policy every routine and kernel runs under: the
// collector, whose Stats the walk counts into, and the heap.Claim it claims
// objects through, filled by Heap.Begin at the top of each collection
// (traceTaggedWord claims through it too). On a tag-free copying major the
// claim checks the forwarding entry and copies inline; in every other mode
// Begin set it marks, copies behind a broken heart or leaves the object
// alone, and promotes a nursery object in any. Fields are read and written
// through the claim's word array, and a traced word is stored only where it
// changed (setField).
type tracer struct {
	c     *Collector
	claim heap.Claim
}

// visit claims the n-word object at w: its current pointer, and whether its
// fields still need tracing (first visit).
func (t *tracer) visit(w code.Word, n int) (code.Word, bool) { return t.claim.Visit(w, n) }

// object claims one object and traces its fields in order — the whole of
// Trace for every shape without a spine.
func (t *tracer) object(sh *shape, w code.Word) code.Word {
	nw, fresh := t.visit(w, sh.size())
	if !fresh {
		return nw
	}
	t.c.Stats.ObjectsCopied++
	for i, f := range sh.fields {
		was := t.claim.Field(nw, sh.off+i)
		t.setField(nw, sh.off+i, was, f.Trace(t, was), f)
	}
	return nw
}

type constG struct{ id int }

func (g *constG) gcID() int { return g.id }

// Trace on unboxed values is the identity (const_gc).
func (g *constG) Trace(_ *tracer, w code.Word) code.Word { return w }

// Child of an opaque routine is opaque (defensive; parametric positions).
func (g *constG) Child(code.PathStep) TypeGC { return g }

type refG struct {
	id   int
	elem TypeGC
	shape
}

func (g *refG) gcID() int { return g.id }

func (g *refG) Child(step code.PathStep) TypeGC { return g.elem }

type tupleG struct {
	id int
	shape
}

func (g *tupleG) gcID() int { return g.id }

func (g *tupleG) Child(step code.PathStep) TypeGC { return g.fields[step.Index] }

type dataG struct {
	id       int
	layoutID int
	layout   *code.DataLayout
	args     []TypeGC
	// ctors holds each boxed constructor's shape, nil until first use.
	ctors []*shape
}

func (g *dataG) gcID() int { return g.id }

func (g *dataG) Child(step code.PathStep) TypeGC { return g.args[step.Index] }

// tag reads the constructor of the boxed value w.
func (g *dataG) tag(c *Collector, w code.Word) int {
	if !g.layout.HasTagWord {
		return 0
	}
	return int(code.DecodeInt(c.Heap.Repr, c.Heap.Field(w, 0)))
}

// ctor returns one constructor's shape. The field routines are a pure
// function of node and tag — hash-consing fixes g.args — so they are
// resolved on first use and kept. The interpreted method alone re-derives
// them for every object: paying for descriptors at trace time is the design
// the paper measures against.
func (g *dataG) ctor(c *Collector, tag int) *shape {
	if sh := g.ctors[tag]; sh != nil {
		return sh
	}
	fds := g.layout.Boxed[tag].Fields
	sh := &shape{fields: c.fromDescs(make([]TypeGC, 0, len(fds)), fds, g.args), tail: -1}
	if g.layout.HasTagWord {
		sh.off = 1
	}
	if n := len(fds); n > 0 && sh.fields[n-1] == TypeGC(g) {
		sh.tail = n - 1
	}
	if c.Strat != StratInterp {
		g.ctors[tag] = sh
	}
	return sh
}

// Trace copies a datatype value. Recursive tail fields whose routine is g
// itself (list spines, tree right-spines) are traced iteratively so a long
// list does not consume host stack proportional to its length.
func (g *dataG) Trace(t *tracer, w code.Word) code.Word {
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
		sh := g.ctor(c, g.tag(c, w))
		nw, fresh := t.visit(w, sh.size())
		link(nw)
		if !fresh {
			return head0(head, haveHead, nw)
		}
		c.Stats.ObjectsCopied++
		for i, f := range sh.fields {
			if i != sh.tail {
				was := t.claim.Field(nw, sh.off+i)
				t.setField(nw, sh.off+i, was, f.Trace(t, was), f)
			}
		}
		if sh.tail < 0 {
			return head0(head, haveHead, nw)
		}
		prevPtr, prevField = nw, sh.off+sh.tail
		w = t.claim.Field(nw, prevField)
	}
}

// head0 returns the chain head, or the sole value when nothing was copied
// into the chain yet.
func head0(head code.Word, haveHead bool, v code.Word) code.Word {
	if haveHead {
		return head
	}
	return v
}

type arrowG struct {
	id       int
	dom, cod TypeGC
}

func (g *arrowG) gcID() int { return g.id }

func (g *arrowG) Child(step code.PathStep) TypeGC {
	if step.Kind == 0 {
		return g.dom
	}
	return g.cod
}

// Trace copies a closure and traces its captures.
func (g *arrowG) Trace(t *tracer, w code.Word) code.Word {
	sh, ok := t.c.shapeOf(g, w)
	if !ok {
		return w
	}
	return t.object(&sh, w)
}

// captures returns the routines for a closure's captured fields. Capture
// types resolve against the function's type environment, derived from the
// reference routine's own dom/cod (Figure 4) and from rep words stored at
// creation — so they are a pure function of the function, the routine and
// the rep handles, and are memoized on exactly that key beside the nodes
// (a monomorphic function's key is its index alone). As in dataG.ctor, the
// interpreted method re-derives them per closure.
func (c *Collector) captures(g *arrowG, fidx int, fi *code.FuncInfo, clos code.Word) []TypeGC {
	resolve := func() []TypeGC {
		return c.fromDescs(make([]TypeGC, 0, len(fi.Captures)), fi.Captures, c.closureEnv(fi, clos, g))
	}
	if c.Strat == StratInterp {
		return resolve()
	}
	key := nodeKey{index: int32(fidx)}
	if fi.TypeEnvLen > 0 {
		key.push(g.id)
		for i := 1; i <= fi.NumRepWords; i++ {
			key.push(int(code.DecodeInt(c.Heap.Repr, c.Heap.Field(clos, i))))
		}
	}
	caps, ok := c.b.caps[key]
	if !ok {
		caps = resolve()
		c.b.caps[key] = caps
	}
	return caps
}

// closureEnv reconstructs a closure's type environment from the reference
// routine (derivable entries) and its stored rep words.
func (c *Collector) closureEnv(fi *code.FuncInfo, clos code.Word, ref TypeGC) []TypeGC {
	if fi.TypeEnvLen == 0 {
		return nil
	}
	env := make([]TypeGC, fi.TypeEnvLen)
	for i := 0; i < fi.TypeEnvLen; i++ {
		if fi.RepWord != nil && fi.RepWord[i] >= 0 {
			h := int(code.DecodeInt(c.Heap.Repr, c.Heap.Field(clos, 1+fi.RepWord[i])))
			env[i] = c.FromRep(h)
			continue
		}
		if fi.Derivs != nil && fi.Derivs[i] != nil && ref != nil {
			env[i] = ApplyPath(ref, fi.Derivs[i])
			continue
		}
		env[i] = c.b.Const()
	}
	return env
}

package gc

import "tagfree/internal/code"

// Live-heap signatures. The TLAB differential suite needs to prove that
// two runs of the same program — one bump-allocating through per-task
// buffers, one through the shared heap — end with the *same live heap*,
// even though buffer carving tiles the space differently and mark/sweep
// addresses are history-dependent. LiveSignature serializes the reachable
// graph into a canonical, address-free word stream: two heaps produce
// bit-identical signatures exactly when they hold the same values with the
// same sharing, regardless of where objects landed.
//
// The serialization is a typed depth-first walk mirroring the verifier's
// (verify.go): same dispatch, same field order, same dataG tail-spine
// iteration, so the signature covers precisely the structure the collector
// is responsible for. Each word emits a tagged pair:
//
//	0, raw   — an immediate, copied verbatim
//	1, idx   — a back-edge to the idx'th object this walk visited
//	2, size  — a first visit; the object's fields follow in type order
//
// Pointers never appear: a boxed word is renamed to its first-visit index,
// which depends only on the walk order, not the address.

// LiveSignature serializes the live heap reachable from the global roots.
// Tagged heaps are walked by headers; every other strategy walks by type,
// exactly as the verifier does. Call it only while the heap is quiescent
// (end of run, or between a collection and the next allocation).
func (c *Collector) LiveSignature(globals []code.Word) []code.Word {
	s := &signer{c: c, seen: map[code.Word]int{}}
	for i, g := range c.Prog.Globals {
		if c.Strat == StratTagged {
			s.walkTagged(globals[i])
		} else {
			s.walk(c.FromDesc(g.Desc, nil), globals[i])
		}
	}
	return s.out
}

type signer struct {
	c    *Collector
	seen map[code.Word]int // pointer word -> first-visit index
	out  []code.Word
}

// enter emits the back-edge or first-visit marker for a boxed word and
// reports whether the caller should serialize the object's contents.
func (s *signer) enter(w code.Word, size int) bool {
	if idx, ok := s.seen[w]; ok {
		s.out = append(s.out, 1, code.Word(idx))
		return false
	}
	s.seen[w] = len(s.seen)
	s.out = append(s.out, 2, code.Word(size))
	return true
}

func (s *signer) raw(w code.Word) { s.out = append(s.out, 0, w) }

func (s *signer) walk(g TypeGC, w code.Word) {
	c := s.c
	for {
		sh, ok := c.shapeOf(g, w)
		if !ok {
			s.raw(w)
			return
		}
		if !s.enter(w, sh.size()) {
			return
		}
		// A constructor tag, a closure's code index and its representation
		// words are immediates: the collector never traces them.
		for i := 0; i < sh.off; i++ {
			s.raw(c.Heap.Field(w, i))
		}
		for i, f := range sh.fields {
			if i != sh.tail {
				s.walk(f, c.Heap.Field(w, sh.off+i))
			}
		}
		if sh.tail < 0 {
			return
		}
		w = c.Heap.Field(w, sh.off+sh.tail)
	}
}

// walkTagged serializes by headers: the tagged heap carries its own
// layout, so the signature is the header's field count plus the fields,
// with boxed fields renamed exactly as in the typed walk. The last field
// iterates rather than recurses so list spines do not overflow the stack.
func (s *signer) walkTagged(w code.Word) {
	c := s.c
	for {
		if !code.IsBoxedValue(c.Heap.Repr, w) {
			s.raw(w)
			return
		}
		n := c.Heap.ObjLen(w)
		if !s.enter(w, n) {
			return
		}
		for i := 0; i < n-1; i++ {
			s.walkTagged(c.Heap.Field(w, i))
		}
		if n == 0 {
			return
		}
		w = c.Heap.Field(w, n-1)
	}
}

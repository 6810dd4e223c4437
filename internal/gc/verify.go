package gc

import (
	"fmt"
	"strings"

	"tagfree/internal/code"
)

// Post-collection verification, GC side. heap.VerifyHeap checks the
// discipline's structural invariants (tiling, forwarding reset, the holes);
// this file adds the semantic half. The roots the collection traced for each
// task — taskJobs' list, kept in the scratch arena — must equal, job by job,
// those of the paper's recursive resolver (reference.go), which shares none
// of its code; from those roots and the globals the verifier re-walks the
// reachable structure read-only, checking that every pointer lands on a live
// block of exactly the extent its type says it has. A
// violation here means the resolver listed a root wrong, or the collector
// retained a dangling pointer, copied an object with the wrong extent, or
// left a root pointing into garbage.
//
// Verification runs outside the measured pause (the invariants hold until
// the mutator allocates again) and only under Collector.Verify. A corrupt
// heap is not a per-task condition — every task shares it — so violations
// panic with a *VerifyError rather than faulting one task.

// VerifyError aggregates heap-verifier violations from one collection.
type VerifyError struct {
	Collection int64
	Violations []error
}

// Error implements the error interface.
func (e *VerifyError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "heap verification failed after collection %d (%d violations)", e.Collection, len(e.Violations))
	for i, v := range e.Violations {
		if i == 8 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(e.Violations)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %v", v)
	}
	return b.String()
}

// verifyCollection checks the just-finished collection's invariants,
// structural (heap.VerifyHeap) and semantic (the resolver witness and the
// typed re-walk of all roots).
func (c *Collector) verifyCollection(tasks []TaskRoots, globals []code.Word) {
	errs := c.Heap.VerifyHeap()
	if c.Strat != StratTagged {
		mem, _ := c.Heap.Words()
		v := &verifier{c: c, seen: make([]bool, len(mem)), task: -1}
		for v.idx = range c.Prog.Globals {
			v.walk(c.FromDesc(c.Prog.Globals[v.idx].Desc, nil), globals[v.idx])
		}
		for v.task = range tasks {
			v.taskRoots(tasks[v.task], c.sc.traced(v.task))
		}
		errs = append(errs, v.errs...)
	}
	if len(errs) > 0 {
		panic(&VerifyError{Collection: c.Heap.Stats.Collections, Violations: errs})
	}
}

// taskRoots holds got, the jobs the collection traced for one stopped task,
// to the reference resolver — a job is its stack index and the ground type
// its routine traces; the first job that differs is the task's violation —
// and walks the reference's roots.
func (v *verifier) taskRoots(t TaskRoots, got []rootJob) {
	want := v.referenceRoots(t)
	bad := -1
	for k, r := range want {
		if bad < 0 && (k >= len(got) || got[k].idx != r.idx || !sameType(got[k].g, r.typ)) {
			bad = k
		}
		v.idx = r.idx
		v.walk(v.c.FromDesc(r.typ, nil), t.Stack[r.idx])
	}
	if bad < 0 && len(got) > len(want) {
		bad = len(want)
	}
	if bad >= 0 {
		v.errs = append(v.errs, fmt.Errorf("task %d job %d: taskJobs lists %v, the reference resolver %v",
			v.task, bad, got[bad:min(bad+1, len(got))], want[bad:min(bad+1, len(want))]))
	}
}

// verifier re-walks reachable structure read-only. seen is indexed by the
// word an object starts at: objects never move between Heap.End and the walk,
// and each object is checked through every root type that reaches it first.
// task and idx name the root being walked (task -1: global idx).
type verifier struct {
	c         *Collector
	seen      []bool
	task, idx int
	errs      []error
}

// where names the root being walked, for a violation's message.
func (v *verifier) where() string {
	if v.task < 0 {
		return fmt.Sprintf("global %d (%s)", v.idx, v.c.Prog.Globals[v.idx].Name)
	}
	return fmt.Sprintf("task %d stack slot %d", v.task, v.idx)
}

func (v *verifier) checkBlock(w code.Word, n int) bool {
	if i := code.DecodePtr(v.c.Heap.Repr, w) - code.HeapBase; i >= 0 && i < len(v.seen) {
		if v.seen[i] {
			return false
		}
		v.seen[i] = true
	}
	if err := v.c.Heap.CheckLive(w, n); err != nil {
		v.errs = append(v.errs, fmt.Errorf("reachable from %s: %v", v.where(), err))
		return false
	}
	return true
}

// badHeader reports (and records) a constructor tag or closure code index
// outside the program, which shapeOf would index with unchecked.
func (v *verifier) badHeader(g TypeGC, w code.Word) bool {
	c := v.c
	if !code.IsBoxedValue(c.Heap.Repr, w) {
		return false
	}
	switch g := g.(type) {
	case *dataG:
		if tag := g.tag(c, w); tag < 0 || tag >= len(g.layout.Boxed) {
			v.errs = append(v.errs, fmt.Errorf("reachable from %s: constructor tag %d outside layout (%d boxed forms)",
				v.where(), tag, len(g.layout.Boxed)))
			return true
		}
	case *arrowG:
		if fidx := int(code.DecodeInt(c.Heap.Repr, c.Heap.Field(w, 0))); fidx < 0 || fidx >= len(c.Prog.Funcs) {
			v.errs = append(v.errs, fmt.Errorf("reachable from %s: closure code index %d outside program (%d functions)",
				v.where(), fidx, len(c.Prog.Funcs)))
			return true
		}
	}
	return false
}

// walk mirrors Trace: the same shapes, the same tail-spine iteration, but
// checking extents instead of claiming objects.
func (v *verifier) walk(g TypeGC, w code.Word) {
	c := v.c
	for !v.badHeader(g, w) {
		sh, ok := c.shapeOf(g, w)
		if !ok || !v.checkBlock(w, sh.size()) {
			return
		}
		for i, f := range sh.fields {
			if i != sh.tail {
				v.walk(f, c.Heap.Field(w, sh.off+i))
			}
		}
		if sh.tail < 0 {
			return
		}
		w = c.Heap.Field(w, sh.off+sh.tail)
	}
}

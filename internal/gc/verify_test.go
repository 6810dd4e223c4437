package gc

import (
	"strings"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/heap"
)

// TestVerifierHoldsPlansToTheReference corrupts a warmed frame plan — its one
// pointer slot, an int list, traced as const — and requires the next
// verified collection to fail on the resolver witness. A verifier that
// resolved its roots through the same plan would walk the slot as const and
// pass, though the collection left it pointing into from-space.
func TestVerifierHoldsPlansToTheReference(t *testing.T) {
	intList := &code.TypeDesc{Kind: code.TDData, Index: 0, Args: []*code.TypeDesc{{Kind: code.TDConst}}}
	prog := listProgram(code.ReprTagFree)
	prog.Code = []code.Word{code.OpMkTuple, 0, 0 /*gc_word*/, 0}
	prog.Funcs = []*code.FuncInfo{{Name: "f"}}
	prog.Sites = []*code.SiteInfo{{Func: 0, Kind: code.SiteAlloc, Live: []code.SlotEntry{{Slot: 0, Desc: intList}}}}
	h := heap.New(code.ReprTagFree, 256)
	c, err := New(prog, h, StratCompiled)
	if err != nil {
		t.Fatal(err)
	}
	c.Verify = true
	// One frame at 0 (no caller) blocked at the allocation; its slot 0 is stack[2].
	tasks := []TaskRoots{{Stack: []code.Word{-1, -1, mkList(h, []int64{1, 2, 3})}}}
	c.Collect(tasks, nil)
	for _, p := range c.plans {
		p.slots[0].routine = routine{g: c.b.Const(), k: kConst}
	}
	defer func() {
		const want = "task 0 job 0: taskJobs lists [slot 2 as const], the reference resolver [slot 2 as data0(const)]"
		r := recover()
		if ve, ok := r.(*VerifyError); !ok || !strings.Contains(ve.Error(), want) {
			t.Fatalf("the collection through the corrupt plan: %v, want a *VerifyError with %q", r, want)
		}
	}()
	c.Collect(tasks, nil)
}

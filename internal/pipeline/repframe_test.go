package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"tagfree/internal/gc"
	"tagfree/internal/workloads"
)

// TestRepCarryingClosureFrameOutlivesCollections: a closure-called frame
// whose type arguments come from the closure's rep words (TypeSourceEnv,
// NumRepWords > 0) resolves them through slot 0, the closure being executed,
// at every collection it is on the stack for — so slot 0 must be in every
// site's frame map of such a function, whether or not the body uses the
// closure again. The thunk body here allocates four times, so under torture
// the frame outlives four collections: by the third, a slot 0 no map kept
// alive points at words the mutator has since overwritten, and the collector
// indexed the rep table with them.
func TestRepCarryingClosureFrameOutlivesCollections(t *testing.T) {
	w, ok := workloads.ByName("thunks")
	if !ok {
		t.Fatal("thunks workload missing")
	}
	src := strings.Replace(w.Source, "[x; x]", "[x; x; x; x]", 1)
	if src == w.Source {
		t.Fatal("the thunk body no longer builds [x; x]")
	}
	for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratInterp, gc.StratAppel} {
		for name, heap := range map[string]Options{
			"copying":   {},
			"marksweep": {MarkSweep: true},
			"nursery":   {NurseryWords: 256},
		} {
			t.Run(fmt.Sprintf("%v/%s", strat, name), func(t *testing.T) {
				opts := heap
				opts.Strategy, opts.HeapWords, opts.Torture, opts.VerifyHeap = strat, w.HeapWords, true, true
				res, err := Run(src, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Value != w.Expect {
					t.Fatalf("main = %d, want %d", res.Value, w.Expect)
				}
			})
		}
	}
}

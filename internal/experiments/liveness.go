package experiments

import (
	"fmt"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/workloads"
)

// e17Workloads are the list-spine shapes where heap-liveness pruning has
// something to prune: long-lived list structure whose elements the rest of
// the program provably never demands. taskspine is the motivating shape
// (boxed pairs consumed only by length); taskpoly and taskdeep hold list
// probes read only through len-style wildcard matches; taskchurn sums its
// lists, so its elements are demanded and the pruner must find nothing.
var e17Workloads = []string{"taskchurn", "taskpoly", "taskdeep", "taskspine"}

// E17HeapLiveness measures liveness-guided tracing: each workload runs
// with the compiled strategy twice, oracle (full-structure tracing) and
// pruned (-gc-heap-liveness), with the poison debug mode armed on the
// pruned run so a wrong spine verdict faults instead of silently reading
// a pruned word. The copied-words delta is structure the analysis proved
// dead that full tracing was retaining; results must be bit-identical.
func E17HeapLiveness() *Table {
	t := &Table{
		ID:    "E17",
		Title: "heap-liveness-guided tracing: spine-only descriptors vs full-structure tracing",
		Claim: "the compile-time liveness maps extend from stack slots into heap structure: where every consumer of a list demands only its spine, the collector can trace the spine and prune the dead element fields, retaining less than type-accurate full-structure tracing — with unchanged results",
		Header: []string{"workload", "gcs", "prune-gcs", "spine roots", "pruned words", "pruned/gc",
			"copied full", "copied pruned", "retained ratio", "equal"},
	}
	for _, name := range e17Workloads {
		w, ok := workloads.TaskByName(name)
		if !ok {
			panic(fmt.Sprintf("E17: no task workload %q", name))
		}
		base := pipeline.Options{
			Strategy:  gc.StratCompiled,
			HeapWords: w.HeapWords,
			MaxSteps:  2_000_000_000,
		}
		off, err := pipeline.RunTasks(w.Source, w.Entries, base)
		if err != nil {
			panic(fmt.Sprintf("E17 %s: %v", w.Name, err))
		}
		pruned := base
		pruned.GCHeapLiveness = true
		pruned.PoisonPruned = true
		on, err := pipeline.RunTasks(w.Source, w.Entries, pruned)
		if err != nil {
			panic(fmt.Sprintf("E17 %s (pruned): %v", w.Name, err))
		}
		equal := len(off.Values) == len(on.Values)
		for i := range off.Values {
			if equal && (off.Values[i] != on.Values[i] || off.Outputs[i] != on.Outputs[i]) {
				equal = false
			}
		}
		perGC := "-"
		if on.Liveness.PruneCollections > 0 {
			perGC = fmt.Sprintf("%.1f", float64(on.GCStats.PrunedWords)/float64(on.Liveness.PruneCollections))
		}
		t.Rows = append(t.Rows, []string{
			w.Name,
			fmt.Sprint(on.GCStats.Collections),
			fmt.Sprint(on.Liveness.PruneCollections),
			fmt.Sprint(on.Liveness.SpineRoots),
			fmt.Sprint(on.GCStats.PrunedWords),
			perGC,
			fmt.Sprint(off.Heap.WordsCopied),
			fmt.Sprint(on.Heap.WordsCopied),
			ratio(on.Heap.WordsCopied, off.Heap.WordsCopied),
			fmt.Sprint(equal),
		})
	}
	t.Notes = append(t.Notes,
		"both rows per workload run the compiled strategy on the copying discipline; the pruned run arms the poison debug mode, so any element a spine verdict wrongly declared dead would fault on load instead of corrupting the comparison",
		"spine roots counts stack slots routed through a pruning kernel (deferred to the post-trace drain so any full-verdict alias marks shared structure first); pruned words counts element fields overwritten with the poison word instead of traced",
		"taskchurn is the control: its lists are summed, so every element is demanded, the analysis issues no spine verdicts and the pruner must retain exactly what the oracle retains",
		"retained ratio is pruned/full copied words — below 1.0 means the liveness maps let the collector evacuate less than type-accurate full-structure tracing",
	)
	return t
}

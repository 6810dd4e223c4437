package tasking_test

import (
	"testing"
	"time"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/workloads"
)

// BenchmarkDispatch times the dispatch loop of tasking.step on three shapes
// from the corpus and reports ns/instr — elapsed time of the runs over the
// instructions they executed — so a register regression in the loop shows
// without the ten-pair benchmark protocol (`make profile-interp` adds the
// CPU profile and the loop's CALL and stack-move counts):
//
//   - calls: tak, nothing but calls, returns, compares and arithmetic;
//   - alloc: listchurn on a 1k-word heap, every allocation an event and a
//     collection every few hundred instructions;
//   - barrier: taskmutate under a nursery, every ref-cell store an event
//     for the write barrier.
func BenchmarkDispatch(b *testing.B) {
	single := func(name string, opts pipeline.Options) func(*testing.B) {
		w, _ := workloads.ByName(name)
		opts.HeapWords = w.HeapWords
		return func(b *testing.B) {
			prog, anal, err := pipeline.Build(w.Source, opts)
			if err != nil {
				b.Fatal(err)
			}
			var instrs int64
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := pipeline.RunProgram(prog, anal, opts)
				if err != nil || res.Value != w.Expect {
					b.Fatalf("%s = %v, %v", name, res, err)
				}
				instrs += res.VMStats.Instructions
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(instrs), "ns/instr")
		}
	}
	b.Run("calls", single("tak", pipeline.Options{Strategy: gc.StratCompiled}))
	b.Run("alloc", single("listchurn", pipeline.Options{Strategy: gc.StratCompiled}))
	b.Run("barrier", func(b *testing.B) {
		w, _ := workloads.TaskByName("taskmutate")
		opts := pipeline.Options{Strategy: gc.StratCompiled, HeapWords: w.HeapWords, NurseryWords: 512}
		var instrs int64
		start := time.Now()
		for i := 0; i < b.N; i++ {
			res, err := pipeline.RunTasks(w.Source, w.Entries, opts)
			if err != nil || res.Values[0] != w.Expect[0] {
				b.Fatalf("taskmutate: %v", err)
			}
			instrs += res.Stats.Instructions
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(instrs), "ns/instr")
	})
}

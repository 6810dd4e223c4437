package tasking_test

import (
	"testing"
	"time"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/workloads"
)

// listWalk sums a 500-element list 200 times: after the list is built, a
// match per element (isboxed→jz, ldfld→move) and a call per element.
const listWalk = `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs acc = match xs with | [] -> acc | x :: r -> sum r (acc + x)
let rec walk k xs acc = if k = 0 then acc else walk (k - 1) xs (acc + sum xs 0)
let main () = walk 200 (upto 500) 0
`

// BenchmarkDispatch times the dispatch loop of tasking.step on six shapes
// and reports ns/instr — elapsed time of the runs over the instructions they
// executed, a superinstruction counted as its parts — so a register regression
// in the loop shows without the ten-pair benchmark protocol (`make
// profile-interp` adds the CPU profile and the loop's CALL and stack-move
// counts):
//
//   - calls: tak, nothing but calls, returns, compares and arithmetic;
//   - branchy: fib, a compare-and-branch and a join's return on every call;
//   - match: listWalk, a list match and a field bound on every element;
//   - alloc: listchurn on a 1k-word heap, a collection every few hundred
//     instructions, the objects between them laid in the loop's window;
//   - alloc-marksweep: the same on a mark/sweep heap under a step budget —
//     the window bumps through the holes the sweeps leave;
//   - barrier: taskmutate under a nursery, every ref-cell store an event
//     for the write barrier.
func BenchmarkDispatch(b *testing.B) {
	single := func(src string, expect int64, opts pipeline.Options) func(*testing.B) {
		return func(b *testing.B) {
			prog, anal, err := pipeline.Build(src, opts)
			if err != nil {
				b.Fatal(err)
			}
			var instrs int64
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := pipeline.RunProgram(prog, anal, opts)
				if err != nil || res.Value != expect {
					b.Fatalf("%v, %v; want %d", res, err, expect)
				}
				instrs += res.VMStats.Instructions
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(instrs), "ns/instr")
		}
	}
	corpus := func(name string, opts pipeline.Options) func(*testing.B) {
		w, _ := workloads.ByName(name)
		opts.Strategy, opts.HeapWords = gc.StratCompiled, w.HeapWords
		return single(w.Source, w.Expect, opts)
	}
	b.Run("calls", corpus("tak", pipeline.Options{}))
	b.Run("branchy", corpus("fib", pipeline.Options{}))
	b.Run("match", single(listWalk, 200*500*501/2, pipeline.Options{Strategy: gc.StratCompiled, HeapWords: 4096}))
	b.Run("alloc", corpus("listchurn", pipeline.Options{}))
	b.Run("alloc-marksweep", corpus("listchurn", pipeline.Options{MarkSweep: true, BudgetSteps: 1 << 40}))
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

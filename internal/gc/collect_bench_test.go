package gc_test

import (
	"testing"
	"time"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
)

// residentSrc is the benchmark's resident shape, trace side: four tasks each
// hold a 5 000-cell list of int pairs — list spines with flat-box payloads,
// ≈ 20 k words a task — while they churn short-lived pairs until the first
// collection.
const residentSrc = `
let rec mkpairs n s = if n = 0 then [] else (n, s * n) :: mkpairs (n - 1) s
let rec psum ps = match ps with | [] -> 0 | (a, b) :: r -> a + b + psum r
let rec burn k = if k = 0 then 0 else (let _ = (k, k) in burn (k - 1))
let rec churn n = if n = 0 then 0 else burn 1000 + churn (n - 1)
let hold s = (let ps = mkpairs 5000 s in churn 100 + psum ps)
let task_a () = hold 1
let task_b () = hold 2
let task_c () = hold 3
let task_d () = hold 4
`

// BenchmarkCollectResident times full collections of a copying heap whose
// live set is ≈ 80 k words of pair lists — every collection copies all of
// it, so the time is the tracer's claim-and-copy loop — and reports it per
// word copied (ns/word), beside the words one collection copies.
func BenchmarkCollectResident(b *testing.B) {
	g, roots := stoppedGroup(b, residentSrc, []string{"task_a", "task_b", "task_c", "task_d"},
		pipeline.Options{Strategy: gc.StratCompiled, HeapWords: 128 << 10})
	g.Col.Collect(roots, g.Globals) // plans and arenas
	words := g.Heap.Stats.WordsCopied
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		g.Col.Collect(roots, g.Globals)
	}
	words = g.Heap.Stats.WordsCopied - words
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(words), "ns/word")
	b.ReportMetric(float64(words)/float64(b.N), "words/op")
}

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

// BenchmarkCollectNursery splits the resident program's pause by kind on a
// nursery heap: the young area is large enough that the root set is taken
// after every list is built, and a first collection promotes the ≈ 80 k
// words into the old region. A minor then walks every frame and stops at
// the young/old boundary; a full collection re-traces the whole tenured
// graph from the same roots. Both report ns/op, the pause, beside the words
// one collection copies.
func BenchmarkCollectNursery(b *testing.B) {
	for _, kind := range []string{"minor", "full"} {
		b.Run(kind, func(b *testing.B) {
			g, roots := stoppedGroup(b, residentSrc, []string{"task_a", "task_b", "task_c", "task_d"},
				pipeline.Options{Strategy: gc.StratCompiled, HeapWords: 128 << 10, NurseryWords: 64 << 10})
			g.Col.Collect(roots, g.Globals) // promotes the lists
			collect, minors := g.Col.CollectFull, g.Col.Gen.MinorCollections
			if kind == "minor" {
				collect = g.Col.Collect
			}
			words := g.Heap.Stats.WordsCopied
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				collect(roots, g.Globals)
			}
			b.StopTimer()
			if kind == "minor" && g.Col.Gen.MinorCollections-minors != int64(b.N) {
				b.Fatalf("%d of %d collections were minors", g.Col.Gen.MinorCollections-minors, b.N)
			}
			b.ReportMetric(float64(g.Heap.Stats.WordsCopied-words)/float64(b.N), "words/op")
		})
	}
}

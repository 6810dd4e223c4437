package pipeline

import (
	"testing"

	"tagfree/internal/gc"
	"tagfree/internal/workloads"
)

// smallProgram is a program of about 600 bytes: the size at which a Build is
// all fixed cost, so a table sized by anything but its input shows here.
const smallProgram = `
type shape = Circle of int | Rect of int * int | Unit
let area s = match s with
  | Circle r -> 3 * r * r
  | Rect (w, h) -> w * h
  | Unit -> 1
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let scale k = fun s -> match s with
  | Circle r -> Circle (r * k)
  | Rect (w, h) -> Rect (w * k, h * k)
  | Unit -> Unit
let shapes n = map (fun i -> if i mod 2 = 0 then Circle i else Rect (i, i + 1)) (upto n)
let main () = sum (map area (map (scale 2) (shapes 12)))
`

// largestWorkload is the longest source of the committed corpus.
func largestWorkload() string {
	src := ""
	for _, w := range workloads.All {
		if len(w.Source) > len(src) {
			src = w.Source
		}
	}
	for _, w := range workloads.Tasking {
		if len(w.Source) > len(src) {
			src = w.Source
		}
	}
	return src
}

// TestBuildAllocBudget holds one Build to a budget of heap objects per source
// byte, so that the next map-per-node or slice-per-walk in the compile path
// fails here and not in a benchmark row. The budgets are the figures measured
// when lowering took its slots from a slab — 2.39, 2.18 and 1.17 — plus
// 25 %; before that, one object per slot, 2.54, 2.33 and 1.25, and
// before the compile-time tables became node-indexed slices (DESIGN.md §14),
// 6.11, 4.68 and 2.61. The two small sources are mostly fixed cost (the built-in
// environment, the program's own tables) and guard against a table sized by
// anything but its input; the 39 KB generated source is the marginal cost of
// a node (the benchmark's 0.43 MB source builds at 1.8 objects per byte).
func TestBuildAllocBudget(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		budget float64 // objects per source byte
	}{
		{"largest workload", largestWorkload(), 2.98},
		{"600-byte program", smallProgram, 2.73},
		{"generated corpus", manyFunctionSource(t, 3), 1.46},
	}
	for _, c := range cases {
		objects := testing.AllocsPerRun(10, func() {
			if _, _, err := Build(c.src, Options{Strategy: gc.StratCompiled}); err != nil {
				t.Fatal(err)
			}
		})
		perByte := objects / float64(len(c.src))
		t.Logf("%s: %d bytes, %.0f objects, %.2f objects/byte (budget %.2f)", c.name, len(c.src), objects, perByte, c.budget)
		if perByte > c.budget {
			t.Errorf("%s: Build allocates %.2f objects per source byte, budget %.2f", c.name, perByte, c.budget)
		}
	}
}

var buildSink int

// BenchmarkBuild is pipeline.Build over a deterministic many-function source
// (eight suffixed copies of the committed corpus, about 1200 functions):
// `make profile-compile` runs it under CPU and allocation profiles.
func BenchmarkBuild(b *testing.B) {
	src := manyFunctionSource(b, 8)
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, _, err := Build(src, Options{Strategy: gc.StratCompiled})
		if err != nil {
			b.Fatal(err)
		}
		buildSink += len(prog.Code)
	}
}

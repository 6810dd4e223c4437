package pipeline

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------------
// Write-barrier fuzz: random interleavings of old→young stores with
// allocation churn (which forces minor cycles between the stores), under
// the heap verifier. A missed or mis-typed barrier surfaces either as a
// verifier panic (stale pointer into the evacuated half) or as a checksum
// mismatch against the Go reference model.
// ---------------------------------------------------------------------------

// fuzzProgram builds a random cell-mutation program and its reference
// value. cells[i] starts as ref [i+1]; ops interleave stores of fresh
// lists, churn allocations, and checksum reads.
func fuzzProgram(rng *rand.Rand) (string, int64) {
	const cells = 6
	const ops = 40
	var b strings.Builder
	b.WriteString(`
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
`)
	model := make([]int64, cells)
	for i := 0; i < cells; i++ {
		fmt.Fprintf(&b, "let c%d = ref [%d]\n", i, i+1)
		model[i] = int64(i + 1)
	}
	b.WriteString("let main () =\n  (let t0 = 0 in\n")
	var acc int64
	tcount := 0
	for i := 0; i < ops; i++ {
		cell := rng.Intn(cells)
		switch rng.Intn(3) {
		case 0: // old→young store: repoint the cell at a fresh list
			n := rng.Intn(12) + 1
			fmt.Fprintf(&b, "  let _ = (c%d := upto %d) in\n", cell, n)
			model[cell] = int64(n*(n+1)) / 2
		case 1: // churn: young garbage, forcing minor cycles between stores
			fmt.Fprintf(&b, "  let _ = upto %d in\n", rng.Intn(20)+5)
		default: // read the cell through the mutated edge
			fmt.Fprintf(&b, "  let t%d = t%d + sum (!c%d) in\n", tcount+1, tcount, cell)
			acc += model[cell]
			tcount++
		}
	}
	fmt.Fprintf(&b, "  t%d)\n", tcount)
	return b.String(), acc
}

func TestNurseryWriteBarrierFuzz(t *testing.T) {
	const seeds = 25
	var barrierHits, minors int64
	for seed := 0; seed < seeds; seed++ {
		src, want := fuzzProgram(rand.New(rand.NewSource(int64(seed))))
		for _, ms := range []bool{false, true} {
			for _, cfg := range []struct{ nursery, promote int }{
				{96, 1}, {192, 3},
			} {
				g, r, err := cell{prog: latticeProg{name: "fuzz", src: src, heap: 2048},
					opts: Options{MarkSweep: ms, NurseryWords: cfg.nursery, PromoteAfter: cfg.promote}}.run()
				if err == nil && r.values[0] != want {
					err = fmt.Errorf("got %d (fault %s), reference %d", r.values[0], r.faults[0], want)
				}
				if err != nil {
					t.Fatalf("seed %d ms=%v nursery=%d: %v\nprogram:\n%s", seed, ms, cfg.nursery, err, src)
				}
				barrierHits += g.Col.Gen.BarrierHits
				minors += g.Col.Gen.MinorCollections
			}
		}
	}
	// The fuzz only means something if it actually drove the machinery.
	if minors == 0 {
		t.Fatal("fuzz never triggered a minor collection")
	}
	if barrierHits == 0 {
		t.Fatal("fuzz never fired the write barrier")
	}
}

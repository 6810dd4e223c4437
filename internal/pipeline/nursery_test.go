package pipeline

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/heap"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// Nursery differential suite. The generational collector must be
// observationally identical to the plain collector: same program outputs,
// same results, and — after a final tenure-all collection empties the
// nursery — the same live heap. Every run executes with the heap verifier
// on, whose typed re-walk doubles as a missed-write-barrier detector: an
// old→young edge the barrier failed to remember leaves a stale pointer
// into the evacuated half, which CheckLive reports as a violation.

// nurseryOutcome is one configuration's observable behavior.
type nurseryOutcome struct {
	output string
	value  int64
	// liveWords is the resident live set after a final tenure-all full
	// collection over the globals (the program has returned, so globals
	// are the only roots). Survivors a full old region kept young are
	// still counted via YoungUsed.
	liveWords int64
	col       *gc.Collector
}

// nurseryRun compiles and runs src under one nursery configuration with
// the verifier enabled, then forces the final tenure-all collection so
// live sets are comparable across configurations.
func nurseryRun(t *testing.T, src string, strat gc.Strategy, hw int, ms bool, par, nurseryWords, promote int) nurseryOutcome {
	t.Helper()
	prog, _, err := Build(src, Options{Strategy: strat})
	if err != nil {
		t.Fatal(err)
	}
	var h *heap.Heap
	if ms {
		h = heap.NewMarkSweep(prog.Repr, 2*hw)
	} else {
		h = heap.New(prog.Repr, hw)
	}
	if nurseryWords > 0 {
		h.EnableNursery(nurseryWords, promote)
	}
	m, err := tasking.NewGroupWith(prog, h, strat, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Col.Parallelism = par
	m.Col.Verify = true
	m.Heap.SetVerify(true)
	m.MaxSteps = 500_000_000
	raw, err := m.RunMain()
	if err != nil {
		t.Fatalf("nursery=%d: %v", nurseryWords, err)
	}
	m.Col.Parallelism = 1
	m.Heap.SetTenureAll(true)
	m.Col.CollectFull(nil, m.Globals)
	m.Heap.SetTenureAll(false)
	live := m.Heap.Stats.LiveAfterLastGC + int64(m.Heap.YoungUsed())
	return nurseryOutcome{
		output:    m.InitTask().Out.String() + m.Tasks[0].Out.String(),
		value:     code.DecodeInt(prog.Repr, raw),
		liveWords: live,
		col:       m.Col,
	}
}

// TestDifferentialNurseryWorkloads pins nursery-on ≡ nursery-off over the
// whole workload corpus, across both disciplines, sequential and parallel
// collection, and every tag-free strategy.
func TestDifferentialNurseryWorkloads(t *testing.T) {
	for _, w := range workloads.All {
		for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratInterp, gc.StratAppel} {
			for _, ms := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/ms=%v", w.Name, strat, ms)
				t.Run(name, func(t *testing.T) {
					for _, par := range []int{1, 4} {
						off := nurseryRun(t, w.Source, strat, w.HeapWords, ms, par, 0, 0)
						on := nurseryRun(t, w.Source, strat, w.HeapWords, ms, par, 256, 2)
						if off.value != w.Expect {
							t.Fatalf("par=%d nursery off: result %d, want %d", par, off.value, w.Expect)
						}
						if on.value != off.value || on.output != off.output {
							t.Fatalf("par=%d: nursery changed observable behavior: value %d vs %d, output %q vs %q",
								par, on.value, off.value, on.output, off.output)
						}
						if on.liveWords != off.liveWords {
							t.Fatalf("par=%d: final live heap diverges: nursery %d words, plain %d words",
								par, on.liveWords, off.liveWords)
						}
					}
				})
			}
		}
	}
}

// TestDifferentialNurseryTasks runs the multi-task corpus with and without
// the nursery under both disciplines and parallel collection, requiring
// identical per-task results and outputs. taskmutate is the write
// barrier's antagonist: its whole point is repointing long-lived cells at
// fresh nursery lists.
func TestDifferentialNurseryTasks(t *testing.T) {
	for _, w := range workloads.Tasking {
		for _, ms := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ms=%v", w.Name, ms), func(t *testing.T) {
				for _, par := range []int{1, 4} {
					var results [][]int64
					var outputs []string
					for _, nursery := range []int{0, 256} {
						res, err := RunTasks(w.Source, w.Entries, Options{
							Strategy:     gc.StratCompiled,
							HeapWords:    w.HeapWords,
							MarkSweep:    ms,
							Parallelism:  par,
							VerifyHeap:   true,
							NurseryWords: nursery,
						})
						if err != nil {
							t.Fatalf("par=%d nursery=%d: %v", par, nursery, err)
						}
						for i, e := range w.Expect {
							if res.Values[i] != e {
								t.Fatalf("par=%d nursery=%d: task %d = %d, want %d",
									par, nursery, i, res.Values[i], e)
							}
						}
						results = append(results, res.Values)
						outputs = append(outputs, strings.Join(res.Outputs, "\x00"))
					}
					if fmt.Sprint(results[0]) != fmt.Sprint(results[1]) || outputs[0] != outputs[1] {
						t.Fatalf("par=%d: nursery changed task results", par)
					}
				}
			})
		}
	}
}

// TestNurseryDisabledIsIdentical pins the -gc-nursery=0 escape hatch: with
// the knob off, the pipeline's collection schedule and telemetry match
// today's behavior exactly (no minor records, no generational counters).
func TestNurseryDisabledIsIdentical(t *testing.T) {
	w, _ := workloads.ByName("listchurn")
	res, err := Run(w.Source, Options{
		Strategy:  gc.StratCompiled,
		HeapWords: w.HeapWords,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Telemetry.Records {
		if rec.Kind != "" {
			t.Fatalf("nursery off: collection record carries generational kind %q", rec.Kind)
		}
		if rec.PromotedWords != 0 || rec.Remembered != 0 || rec.BarrierHits != 0 {
			t.Fatalf("nursery off: generational counters nonzero: %+v", rec)
		}
	}
	if res.HeapStats.MinorCollections != 0 || res.HeapStats.PromotedWords != 0 {
		t.Fatalf("nursery off: heap recorded generational activity: %+v", res.HeapStats)
	}
}

// TestNurseryRejectsTagged pins the representation constraint at the
// pipeline layer.
func TestNurseryRejectsTagged(t *testing.T) {
	w, _ := workloads.ByName("listchurn")
	if _, err := Run(w.Source, Options{Strategy: gc.StratTagged, NurseryWords: 256}); err == nil {
		t.Fatal("tagged + nursery must be rejected")
	}
	if _, err := RunTasks(workloads.Tasking[0].Source, workloads.Tasking[0].Entries,
		Options{Strategy: gc.StratTagged, NurseryWords: 256}); err == nil {
		t.Fatal("tagged + nursery tasks must be rejected")
	}
}

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
				out := nurseryRun(t, src, gc.StratCompiled, 2048, ms, 1, cfg.nursery, cfg.promote)
				if out.value != want {
					t.Fatalf("seed %d ms=%v nursery=%d: got %d, reference %d\nprogram:\n%s",
						seed, ms, cfg.nursery, out.value, want, src)
				}
				barrierHits += out.col.Gen.BarrierHits
				minors += out.col.Gen.MinorCollections
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

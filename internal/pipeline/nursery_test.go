package pipeline

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
)

// ---------------------------------------------------------------------------
// Write-barrier fuzz: random interleavings of old→young stores with
// allocation churn (which forces minor cycles between the stores), under
// the heap verifier. A missed or mis-typed barrier surfaces either as a
// verifier error (stale pointer into the emptied nursery) or as a checksum
// mismatch against the Go reference model. A tuple wider than the smallest
// nursery is born old with its initializing stores unbarriered, so the next
// collection must be a major.
// ---------------------------------------------------------------------------

// fuzzProgram builds a random cell-mutation program and its reference
// value. cells[i] starts as ref [i+1]; ops interleave stores of fresh
// lists, churn allocations, and checksum reads, and once a wide tuple of
// fresh lists read back after a churn.
func fuzzProgram(rng *rand.Rand) (string, int64) {
	const cells = 6
	const ops = 40
	const wide = 20 // fields of a wide tuple: wider than a 16-word nursery
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
	wideAt := rng.Intn(ops)
	for i := 0; i < ops; i++ {
		if i == wideAt { // a tuple that may be born old holds the only edges to fresh lists across a churn
			var lists, names, sums []string
			for j := 0; j < wide; j++ {
				n := rng.Intn(4) + 1
				lists, names = append(lists, fmt.Sprintf("upto %d", n)), append(names, fmt.Sprintf("l%d", j))
				sums = append(sums, fmt.Sprintf("sum l%d", j))
				acc += int64(n*(n+1)) / 2
			}
			fmt.Fprintf(&b, "  let t%d = t%d + (let w = (%s) in let _ = upto 20 in match w with | (%s) -> %s) in\n",
				tcount+1, tcount, strings.Join(lists, ", "), strings.Join(names, ", "), strings.Join(sums, " + "))
			tcount++
		}
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
	var barrierHits, minors, preTenured int64
	for seed := 0; seed < seeds; seed++ {
		src, want := fuzzProgram(rand.New(rand.NewSource(int64(seed))))
		for _, ms := range []bool{false, true} {
			for _, nursery := range []int{16, 96, 192} {
				g, r, err := cell{prog: latticeProg{name: "fuzz", src: src, heap: 2048},
					opts: Options{MarkSweep: ms, NurseryWords: nursery}}.run()
				if err == nil && r.values[0] != want {
					err = fmt.Errorf("got %d (fault %s), reference %d", r.values[0], r.faults[0], want)
				}
				if err != nil {
					t.Fatalf("seed %d ms=%v nursery=%d: %v\nprogram:\n%s", seed, ms, nursery, err, src)
				}
				barrierHits += g.Col.Gen.BarrierHits
				preTenured += g.Col.Gen.PreTenured
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
	if preTenured == 0 {
		t.Fatal("fuzz never allocated an object wider than the nursery")
	}
}

// taskmixSrc is the benchmark's taskmix program (eight tasks repointing ten
// long-lived ref cells each at fresh 12-cell lists between churn) at its full
// size, with fixed task parameters.
const taskmixSrc = `
let rec upto n b = if n = 0 then [] else (n + b) :: upto (n - 1) b
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec mkcells n = if n = 0 then [] else ref [n] :: mkcells (n - 1)
let rec refresh cells k b =
  match cells with
  | [] -> 0
  | c :: r -> (let _ = (c := upto k b) in 1 + refresh r k b)
let rec harvest cells = match cells with | [] -> 0 | c :: r -> (sum (!c) + harvest r) mod 1000003
let rec cycle cells n b acc =
  if n = 0 then acc
  else (let _ = refresh cells 12 (n + b) in
        cycle cells (n - 1) b ((acc + harvest cells + sum (upto 20 n)) mod 1000003))
let rec rounds cells n b acc = if n = 0 then acc else rounds cells (n - 1) b (cycle cells 30 b acc)
let work s b = (let cells = mkcells 10 in rounds cells 36 b s)
let mut_a () = work 8101 12
let mut_b () = work 4410 57
let mut_c () = work 77 3
let mut_d () = work 5239 40
let mut_e () = work 1960 25
let mut_f () = work 6634 0
let mut_g () = work 3013 49
let mut_h () = work 8888 31
`

// TestNurseryTaskmixPromotesOnce runs taskmix with a nursery and buffers on
// one shard. Every survivor is promoted once, so the collections copy fewer
// words than the program allocates (an aging nursery whose old region fills
// copies the same survivors young at every minor: 39.5 M words for 2.4 M
// allocated); and once a promotion fails for want of old-region room, the
// next collection is a major that makes it.
func TestNurseryTaskmixPromotesOnce(t *testing.T) {
	entries := []string{"mut_a", "mut_b", "mut_c", "mut_d", "mut_e", "mut_f", "mut_g", "mut_h"}
	oracle, err := RunTasks(taskmixSrc, entries, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, ids, err := BuildTaskGroup(taskmixSrc, entries, Options{NurseryWords: 2048, TLABWords: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		g.Spawn(id)
	}
	if err := g.RunInit(); err != nil {
		t.Fatal(err)
	}
	// pins[i] is the promotion-failure count when collection i began.
	var pins []int64
	retire := g.Col.PreCollect
	g.Col.PreCollect = func(tasks []gc.TaskRoots) {
		pins = append(pins, g.Heap.Stats.PromotionFailures)
		retire(tasks)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	for i, task := range g.Tasks {
		if v := code.DecodeInt(g.Heap.Repr, task.Result); task.Fault != nil || v != oracle.Values[i] {
			t.Fatalf("task %d: %d (fault %v), want %d", i, v, task.Fault, oracle.Values[i])
		}
	}
	recs := g.Col.Telem.Records
	if len(pins) != len(recs) {
		t.Fatalf("%d collections began, %d records", len(pins), len(recs))
	}
	failed := 0
	for i := 0; i+1 < len(recs); i++ {
		if pins[i+1] == pins[i] {
			continue
		}
		failed++
		if recs[i+1].Kind != "major" {
			t.Fatalf("collection %d pinned %d survivors; the next is a %s, want a major", i, pins[i+1]-pins[i], recs[i+1].Kind)
		}
	}
	hs := g.Heap.Stats
	if hs.WordsCopied > hs.WordsAllocated {
		t.Fatalf("copied %d words of %d allocated", hs.WordsCopied, hs.WordsAllocated)
	}
	if failed == 0 {
		t.Fatalf("no promotion failed in %d collections: the run does not reach the major it forces", len(recs))
	}
	t.Logf("%d collections (%d minor), %d failing a promotion; %d words copied of %d allocated",
		len(recs), hs.MinorCollections, failed, hs.WordsCopied, hs.WordsAllocated)
}

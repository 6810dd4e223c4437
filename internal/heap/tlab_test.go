package heap

import (
	"fmt"
	"math/rand"
	"testing"

	"tagfree/internal/code"
)

func TestTLABCarveAllocRetire(t *testing.T) {
	h := New(code.ReprTagFree, 1000)
	h.EnableTLABs(16)
	tl, ok := h.CarveTLAB(2)
	if !ok {
		t.Fatal("carve failed on an empty heap")
	}
	if tl.Cap() != 16 {
		t.Fatalf("carved %d words, want the 16-word chunk", tl.Cap())
	}
	p1, ok := h.AllocTLAB(&tl, 2)
	if !ok {
		t.Fatal("AllocTLAB failed inside a fresh buffer")
	}
	p2, ok := h.AllocTLAB(&tl, 3)
	if !ok {
		t.Fatal("second AllocTLAB failed")
	}
	h.SetField(p1, 0, 41)
	h.SetField(p2, 2, 42)
	if h.Field(p1, 0) != 41 || h.Field(p2, 2) != 42 {
		t.Fatal("TLAB object field round-trip failed")
	}
	if tl.Remaining() != 11 {
		t.Fatalf("remaining = %d, want 11", tl.Remaining())
	}
	// The buffer's tail still sits at the heap's bump frontier, so retiring
	// gives the tail back instead of wasting it.
	waste, returned := h.RetireTLAB(&tl)
	if waste != 0 || returned != 11 {
		t.Fatalf("retire at the frontier: waste=%d returned=%d, want 0/11", waste, returned)
	}
	if h.Used() != 5 {
		t.Fatalf("used = %d after give-back, want 5", h.Used())
	}
	if h.Stats.TLABAllocs != 2 || h.Stats.TLABRefills != 1 {
		t.Fatalf("stats: allocs=%d refills=%d, want 2/1", h.Stats.TLABAllocs, h.Stats.TLABRefills)
	}
}

func TestTLABWasteBehindFrontier(t *testing.T) {
	h := New(code.ReprTagFree, 1000)
	h.EnableTLABs(16)
	tl, _ := h.CarveTLAB(1)
	h.AllocTLAB(&tl, 1)
	// A shared-heap allocation behind the buffer's limit pins the frontier,
	// so the tail cannot be returned and becomes waste.
	h.MustAlloc(2)
	waste, returned := h.RetireTLAB(&tl)
	if waste != 15 || returned != 0 {
		t.Fatalf("retire behind the frontier: waste=%d returned=%d, want 15/0", waste, returned)
	}
	if h.Stats.TLABWasteWords != 15 {
		t.Fatalf("TLABWasteWords = %d, want 15", h.Stats.TLABWasteWords)
	}
}

func TestTLABMarkSweepWasteIsSweptGap(t *testing.T) {
	h := NewMarkSweep(code.ReprTagFree, 20)
	h.EnableTLABs(16)
	tl, _ := h.CarveTLAB(3)
	h.AllocTLAB(&tl, 3)
	h.MustAlloc(2) // pin the frontier
	waste, _ := h.RetireTLAB(&tl)
	if waste != 13 {
		t.Fatalf("waste = %d, want 13", waste)
	}
	// The waste must be a gap, keeping the object/gap tiling verifiable,
	// and the next sweep makes it a hole: with the rest of the region
	// nearly full, a 13-word request must recycle it.
	if errs := h.VerifyHeap(); len(errs) > 0 {
		t.Fatalf("verify after retirement: %v", errs)
	}
	cl := begin(h)
	cl.Visit(code.EncodePtr(code.ReprTagFree, code.HeapBase), 3)
	cl.Visit(code.EncodePtr(code.ReprTagFree, code.HeapBase+16), 2)
	h.End()
	if errs := h.VerifyHeap(); len(errs) > 0 {
		t.Fatalf("verify after sweep: %v", errs)
	}
	p, err := h.Alloc(13)
	if err != nil {
		t.Fatalf("reusing the waste gap: %v", err)
	}
	if h.addrIndex(p) != 3 || h.Stats.FreeListHits != 1 {
		t.Fatal("13-word allocation did not recycle the waste gap")
	}
}

func TestTLABNurseryCarvesYoung(t *testing.T) {
	h := New(code.ReprTagFree, 1000)
	h.EnableNursery(64)
	h.EnableTLABs(16)
	tl, ok := h.CarveTLAB(2)
	if !ok {
		t.Fatal("nursery carve failed")
	}
	p, _ := h.AllocTLAB(&tl, 2)
	if !h.InYoung(p) {
		t.Fatal("nursery TLAB object was not born young")
	}
	if h.YoungUsed() != 16 {
		t.Fatalf("young used = %d, want the carved 16", h.YoungUsed())
	}
	h.RetireTLAB(&tl)
	if h.YoungUsed() != 2 {
		t.Fatalf("young used = %d after give-back, want 2", h.YoungUsed())
	}
	// Oversize objects are not TLAB-eligible on a nursery heap.
	if h.TLABEligible(65) {
		t.Fatal("object larger than the nursery takes must not be TLAB-eligible")
	}
}

func TestTLABCarveClampsToAvailable(t *testing.T) {
	h := New(code.ReprTagFree, 20)
	h.EnableTLABs(16)
	h.MustAlloc(10)
	// Only 10 words left: the chunk clamps down but the carve succeeds.
	tl, ok := h.CarveTLAB(4)
	if !ok {
		t.Fatal("clamped carve failed with room for the object")
	}
	if tl.Cap() != 10 {
		t.Fatalf("clamped carve got %d words, want 10", tl.Cap())
	}
	h.RetireTLAB(&tl)
	// No room for even one object: the carve fails.
	h.MustAlloc(8)
	if _, ok := h.CarveTLAB(4); ok {
		t.Fatal("carve succeeded with 2 words free for a 4-word object")
	}
}

func TestTLABCollectionGuards(t *testing.T) {
	h := New(code.ReprTagFree, 100)
	h.EnableTLABs(8)
	tl, _ := h.CarveTLAB(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Begin with a live TLAB did not panic")
			}
		}()
		begin(h)
	}()
	if err := h.Grow(200); err == nil {
		t.Fatal("Grow with a live TLAB did not fail")
	}
	h.RetireTLAB(&tl)
	begin(h)
	h.End()
	if errs := h.VerifyHeap(); len(errs) > 0 {
		t.Fatalf("verify with TLABs enabled: %v", errs)
	}
}

// TestTLABNeedMatchesRetryPath: on a buffered heap Need judges a retry as
// the retry runs — a carve into the first hole that takes the object,
// clamped to it — so a hole shorter than a chunk still rescues the request.
func TestTLABNeedMatchesRetryPath(t *testing.T) {
	h := NewMarkSweep(code.ReprTagFree, 10)
	h.EnableTLABs(8)
	h.MustAlloc(4)
	h.MustAlloc(6)
	// Free the first block via a collection that keeps only the second.
	begin(h).Visit(code.EncodePtr(code.ReprTagFree, code.HeapBase+4), 6)
	h.End()
	if !h.Need(5) {
		t.Fatal("Need(5) must report pressure: no hole takes 5 words")
	}
	if _, ok := h.CarveTLAB(5); ok {
		t.Fatal("a 5-word carve succeeded where Need reported pressure")
	}
	if h.Need(3) {
		t.Fatal("Need(3) must see the 4-word hole a carve would clamp to")
	}
	if tl, ok := h.CarveTLAB(3); !ok || tl.Cap() != 4 {
		t.Fatalf("carve for 3 words: %d words, %v; want the 4-word hole", tl.Cap(), ok)
	}
}

// tlabModel is the Go reference allocator model for the fuzz below: it
// tracks every carved interval and every object placed, asserting that no
// word is ever handed out twice and that waste accounting is exact.
type tlabModel struct {
	t *testing.T
	// owner[w] notes which task's buffer (or -1 for shared) carved word w.
	owner map[int]int
}

func (m *tlabModel) claim(task, base, size int) {
	for w := base; w < base+size; w++ {
		if prev, dup := m.owner[w]; dup {
			m.t.Fatalf("word %d double-carved: task %d after task %d", w, task, prev)
		}
		m.owner[w] = task
	}
}

func (m *tlabModel) release(base, size int) {
	for w := base; w < base+size; w++ {
		delete(m.owner, w)
	}
}

// TestTLABInterleavingFuzz drives N simulated tasks through randomized
// carve/alloc/retire interleavings against the model, across both
// disciplines and nursery on/off, multi-seed. After every buffer is
// retired the heap's exact accounting identity must hold:
// RefillWords == AllocWords + WasteWords + ReturnedWords.
func TestTLABInterleavingFuzz(t *testing.T) {
	const tasks = 4
	for _, ms := range []bool{false, true} {
		for _, nursery := range []bool{false, true} {
			for seed := int64(1); seed <= 12; seed++ {
				name := fmt.Sprintf("ms=%v/nursery=%v/seed=%d", ms, nursery, seed)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					var h *Heap
					if ms {
						h = NewMarkSweep(code.ReprTagFree, 4096)
					} else {
						h = New(code.ReprTagFree, 4096)
					}
					if nursery {
						h.EnableNursery(256)
					}
					chunk := 8 + rng.Intn(56)
					h.EnableTLABs(chunk)
					model := &tlabModel{t: t, owner: map[int]int{}}
					bufs := make([]TLAB, tasks)
					var wantAllocWords int64
					for op := 0; op < 400; op++ {
						task := rng.Intn(tasks)
						switch rng.Intn(10) {
						case 0: // retire
							top, limit := bufs[task].top, bufs[task].limit
							if h.RetireTLAB(&bufs[task]); limit > top {
								// Released words may be re-carved (give-back)
								// or reused (mark/sweep gap): either way they
								// leave this task's ownership.
								model.release(top, limit-top)
							}
						default: // allocate 1..6 fields
							n := 1 + rng.Intn(6)
							if ptr, ok := h.AllocTLAB(&bufs[task], n); ok {
								if base := h.addrIndex(ptr); base < bufs[task].start || base+n > bufs[task].limit {
									t.Fatalf("task %d object [%d,%d) escapes its TLAB [%d,%d)",
										task, base, base+n, bufs[task].start, bufs[task].limit)
								}
								wantAllocWords += int64(n)
								continue
							}
							top, limit := bufs[task].top, bufs[task].limit
							if h.RetireTLAB(&bufs[task]); limit > top {
								model.release(top, limit-top)
							}
							tl, ok := h.CarveTLAB(n)
							if !ok {
								continue // heap full for this path; fine
							}
							model.claim(task, tl.start, tl.Cap())
							bufs[task] = tl
							if _, ok := h.AllocTLAB(&bufs[task], n); !ok {
								t.Fatalf("task %d: alloc failed inside a fresh carve", task)
							}
							wantAllocWords += int64(n)
						}
					}
					for i := range bufs {
						h.RetireTLAB(&bufs[i])
					}
					if h.LiveTLABs() != 0 {
						t.Fatalf("%d TLABs live after retiring all", h.LiveTLABs())
					}
					s := h.Stats
					if s.TLABAllocWords != wantAllocWords {
						t.Fatalf("TLABAllocWords = %d, model counted %d", s.TLABAllocWords, wantAllocWords)
					}
					if s.TLABRefillWords != s.TLABAllocWords+s.TLABWasteWords+s.TLABReturnedWords {
						t.Fatalf("accounting: refill %d != alloc %d + waste %d + returned %d",
							s.TLABRefillWords, s.TLABAllocWords, s.TLABWasteWords, s.TLABReturnedWords)
					}
				})
			}
		}
	}
}

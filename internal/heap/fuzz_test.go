package heap

import (
	"testing"

	"tagfree/internal/code"
)

// FuzzMarkSweepHoles drives a mark/sweep heap through arbitrary
// alloc/drop/collect sequences decoded from the fuzz input and checks the
// side-metadata invariants after every collection: the block-size table
// (objects and gaps), the visit record and the holes must never disagree
// about what each word of the heap is.
func FuzzMarkSweepHoles(f *testing.F) {
	f.Add([]byte{0, 3, 0, 5, 1, 0, 2, 0, 2, 0, 7})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 1, 0, 2, 0, 1, 2})
	f.Add([]byte{2, 2, 0, 8, 1, 0, 2, 0, 8, 0, 8, 1, 1, 2, 0, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const heapWords = 256
		h := NewMarkSweep(code.ReprTagFree, heapWords)

		type obj struct {
			ptr  code.Word
			size int
		}
		var live []obj

		collect := func() {
			cl := begin(h)
			for _, o := range live {
				if _, fresh := cl.Visit(o.ptr, o.size); !fresh {
					t.Fatalf("live object at %v visited twice in one collection", o.ptr)
				}
			}
			h.End()
			checkMarkSweepInvariants(t, h, func() map[int]int {
				m := make(map[int]int, len(live))
				for _, o := range live {
					m[h.addrIndex(o.ptr)] = o.size
				}
				return m
			}())
		}

		for i := 0; i < len(ops); i++ {
			switch ops[i] % 3 {
			case 0: // alloc, size from the next byte
				i++
				if i >= len(ops) {
					return
				}
				size := int(ops[i]%8) + 1
				if h.Need(size) {
					// Would not fit (no hole ahead takes it) —
					// allocating would OOM, skip.
					continue
				}
				ptr := h.MustAlloc(size)
				base := h.addrIndex(ptr)
				if int(h.objSize[base]) != size {
					t.Fatalf("alloc(%d): objSize[%d] = %d", size, base, h.objSize[base])
				}
				live = append(live, obj{ptr, size})
			case 1: // drop one live object (becomes garbage for the next GC)
				if len(live) == 0 {
					continue
				}
				i++
				k := 0
				if i < len(ops) {
					k = int(ops[i]) % len(live)
				}
				live = append(live[:k], live[k+1:]...)
			case 2: // collect
				collect()
			}
		}
		collect()
	})
}

// checkMarkSweepInvariants validates the heap's side metadata right after
// a collection. liveAt maps object base offsets to their sizes.
func checkMarkSweepInvariants(t *testing.T, h *Heap, liveAt map[int]int) {
	t.Helper()

	// 1. Live objects keep their allocation extent; no mark carries over to
	// the next collection.
	for base, size := range liveAt {
		if int(h.objSize[base]) != size {
			t.Fatalf("live object at %d: objSize %d, want %d", base, h.objSize[base], size)
		}
		if _, marked := h.visited(base); marked {
			t.Fatalf("mark at %d still current after the collection", base)
		}
	}

	// 2. The holes lie below the high-water mark, in address order, merged
	// (no two adjacent) and agree with the gap sizes; none overlaps a live
	// object. Right after a sweep the current hole is the tail above them:
	// the words never allocated.
	freeWords, seen, at := 0, map[int]bool{}, -1
	for _, hole := range h.holes {
		if hole.base <= at || hole.base+hole.size > h.top {
			t.Fatalf("hole [%d,%d) out of order, adjacent to the one before or out of bounds", hole.base, hole.base+hole.size)
		}
		if int(h.objSize[hole.base]) != -hole.size {
			t.Fatalf("hole at %d: objSize %d for a %d-word hole", hole.base, h.objSize[hole.base], hole.size)
		}
		if _, isLive := liveAt[hole.base]; isLive {
			t.Fatalf("offset %d is both live and a hole", hole.base)
		}
		seen[hole.base] = true
		freeWords += hole.size
		at = hole.base + hole.size
	}
	if h.alloc != h.top || h.limit != len(h.mem) || h.nextHole != 0 {
		t.Fatalf("current hole [%d,%d) (next %d), want the tail [%d,%d)", h.alloc, h.limit, h.nextHole, h.top, len(h.mem))
	}
	if tail := h.limit - h.alloc; tail > 0 {
		if int(h.objSize[h.alloc]) != -tail {
			t.Fatalf("tail at %d: objSize %d for a %d-word tail", h.alloc, h.objSize[h.alloc], tail)
		}
		seen[h.alloc] = true
		freeWords += tail
	}

	// 3. Walking the region by extents covers every word exactly once:
	// each base is a live object or a hole, and live + free words are the
	// region — which the objects' words alone occupy.
	liveWords := 0
	for base := 0; base < len(h.mem); {
		if size, ok := liveAt[base]; ok {
			liveWords += size
			base += size
			continue
		}
		if n := -int(h.objSize[base]); n > 0 {
			if !seen[base] {
				t.Fatalf("gap at %d is not a hole", base)
			}
			base += n
			continue
		}
		t.Fatalf("offset %d is neither a live object nor a hole", base)
	}
	if liveWords+freeWords != len(h.mem) {
		t.Fatalf("live %d + free %d != region %d", liveWords, freeWords, len(h.mem))
	}
	if h.Stats.LiveAfterLastGC != int64(liveWords) || h.OccupiedWords() != liveWords {
		t.Fatalf("LiveAfterLastGC = %d, OccupiedWords = %d, walk found %d", h.Stats.LiveAfterLastGC, h.OccupiedWords(), liveWords)
	}
}

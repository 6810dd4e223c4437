package gc_test

// Fast-path hardening: the Compiled strategy's collection fast path
// (frame-plan cache, pc→site cache, specialized trace kernels — see
// internal/gc/fastpath.go) is a pure memoization and must be invisible to
// everything but the clock. These tests pin the central claim: a
// fast-path collection history leaves every single heap word equal to the
// uncached oracle's — the interp strategy, which decodes the same frame
// maps afresh at every collection — under both heap disciplines, and the
// caches actually engage on the workloads that motivated them.

import (
	"fmt"
	"slices"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/workloads"
)

// runGroupFP executes a task workload under strat with the verifier on,
// returning each task's raw result, the final heap image and the collector's
// counters for cache-engagement assertions.
func runGroupFP(t *testing.T, w workloads.TaskWorkload, strat gc.Strategy, ms bool) ([]code.Word, []code.Word, gc.Stats) {
	t.Helper()
	g := runGroupTo(t, w, strat, ms, true)
	results := make([]code.Word, len(g.Tasks))
	for i, task := range g.Tasks {
		results[i] = task.Result
	}
	return results, g.Heap.MemSnapshot(), g.Col.Stats
}

// TestFastPathBitIdenticalToOracle: for every task workload and heap
// discipline, collections through the plan cache and kernels leave the heap
// bit-identical to the uncached oracle, interp: codegen depends only on the
// representation, so the two run the same program and collect at the same
// points.
func TestFastPathBitIdenticalToOracle(t *testing.T) {
	for _, w := range workloads.Tasking {
		for _, ms := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ms=%v", w.Name, ms), func(t *testing.T) {
				oracleRes, oracleMem, oracleStats := runGroupFP(t, w, gc.StratInterp, ms)
				if oracleStats.PlanHits+oracleStats.PlanMisses != 0 || oracleStats.KernelWords != 0 || oracleStats.DescBytesDecoded == 0 {
					t.Fatalf("oracle did not decode every frame afresh: %+v", oracleStats)
				}
				fastRes, fastMem, fastStats := runGroupFP(t, w, gc.StratCompiled, ms)
				if !slices.Equal(oracleRes, fastRes) {
					t.Fatalf("results diverge: oracle %v fast %v", oracleRes, fastRes)
				}
				if !slices.Equal(oracleMem, fastMem) {
					t.Fatalf("heap images diverge (%d words)", len(oracleMem))
				}
				if fastStats.PlanHits == 0 {
					t.Fatalf("plan cache never hit: %+v", fastStats)
				}
				// The oracle and the fast path must agree on the logical
				// trace work, not just the final heap.
				if fastStats.FramesTraced != oracleStats.FramesTraced ||
					fastStats.SlotsTraced != oracleStats.SlotsTraced ||
					fastStats.ObjectsCopied != oracleStats.ObjectsCopied {
					t.Fatalf("work counters diverge:\n  oracle %+v\n  fast   %+v", oracleStats, fastStats)
				}
			})
		}
	}
}

// TestFastPathCachesEngage pins that the workload shape the fast path was
// built for — deep stacks of polymorphic frames over list structure —
// actually drives all three caches: the plan cache converges to hits, the
// pc→site cache is consulted, and kernels trace the bulk of the copied
// words.
func TestFastPathCachesEngage(t *testing.T) {
	w, ok := workloads.TaskByName("taskpoly")
	if !ok {
		t.Fatal("taskpoly workload missing")
	}
	_, _, st := runGroupFP(t, w, gc.StratCompiled, false)
	if st.PlanMisses == 0 {
		t.Fatalf("no plans were ever built: %+v", st)
	}
	if st.PlanHits < 10*st.PlanMisses {
		t.Fatalf("plan cache not amortizing: hits=%d misses=%d", st.PlanHits, st.PlanMisses)
	}
	if st.SiteCacheHits == 0 {
		t.Fatalf("pc→site cache never hit: %+v", st)
	}
	if st.KernelWords == 0 {
		t.Fatalf("kernels never traced a word: %+v", st)
	}
}

// TestFastPathTreeKernel pins the self-recursive extension of the spine
// kernel: a binary tree over unboxed payloads (tasktree) is a flat shape —
// every constructor field is const or the datatype itself — so its bulk
// must trace through kSpineFlat, not fall back to generic dispatch, under
// both disciplines.
func TestFastPathTreeKernel(t *testing.T) {
	w, ok := workloads.TaskByName("tasktree")
	if !ok {
		t.Fatal("tasktree workload missing")
	}
	for _, ms := range []bool{false, true} {
		_, _, st := runGroupFP(t, w, gc.StratCompiled, ms)
		if st.KernelWords == 0 {
			t.Fatalf("ms=%v: tree spines never traced through a kernel: %+v", ms, st)
		}
	}
}

// TestFastPathOtherStrategiesUnaffected: the plan cache and kernels are a
// Compiled-strategy specialization. Interp must keep paying its
// per-collection decode cost (the E4 trade-off) and Appel its chain
// re-walks; only the strategy-neutral pc→site cache may serve them.
func TestFastPathOtherStrategiesUnaffected(t *testing.T) {
	w, ok := workloads.TaskByName("taskchurn")
	if !ok {
		t.Fatal("taskchurn workload missing")
	}
	for _, strat := range []gc.Strategy{gc.StratInterp, gc.StratAppel} {
		_, _, st := runGroupFP(t, w, strat, false)
		if st.PlanHits != 0 || st.PlanMisses != 0 || st.KernelWords != 0 {
			t.Fatalf("%v: plan cache or kernels engaged: %+v", strat, st)
		}
		if strat == gc.StratInterp && st.DescBytesDecoded == 0 {
			t.Fatalf("interp stopped decoding descriptors: %+v", st)
		}
		if strat == gc.StratAppel && st.ChainSteps == 0 {
			t.Fatalf("appel stopped re-walking chains: %+v", st)
		}
	}
}

package pipeline

import (
	"fmt"
	"testing"

	"tagfree/internal/gc"
	"tagfree/internal/workloads"
)

// TestShardMinorsRun pins the tentpole's point: at 4 shards over the churn
// workload, single-shard minors actually fire, their telemetry records
// carry the 1-based shard id, and tasks in other shards stay runnable
// through them (nonzero overlap) — the pauses would all have been
// stop-the-world without sharding.
func TestShardMinorsRun(t *testing.T) {
	w, ok := workloads.TaskByName("taskchurn")
	if !ok {
		t.Fatal("taskchurn workload missing")
	}
	res, err := RunTasks(w.Source, w.Entries, Options{
		Strategy:     gc.StratCompiled,
		HeapWords:    w.HeapWords,
		VerifyHeap:   true,
		NurseryWords: 256,
		Shards:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShardMinors == 0 {
		t.Fatal("no shard minors ran — sharding never collected a shard alone")
	}
	if res.Stats.ShardMinorOverlapTasks == 0 {
		t.Fatal("shard minors ran but no other-shard task was ever runnable through one")
	}
	var shardRecs int
	for _, rec := range res.Telemetry.Records {
		if rec.Shard > 0 {
			if rec.Kind != "minor" {
				t.Fatalf("shard-tagged record has kind %q, want minor", rec.Kind)
			}
			if rec.Shard > 4 {
				t.Fatalf("record shard %d out of range for 4 shards", rec.Shard)
			}
			shardRecs++
		}
	}
	if int64(shardRecs) != res.Stats.ShardMinors {
		t.Fatalf("telemetry shows %d shard-tagged records, stats counted %d shard minors",
			shardRecs, res.Stats.ShardMinors)
	}
}

// TestShardMinorKeepsOtherShardsTLABs pins the verifier's buffer invariant
// to the shard that collected: a single-shard minor retires only its own
// shard's allocation buffers — the other shards' tasks keep running, buffers
// live, which is the overlap sharding exists for — so the post-collection
// check may demand zero live buffers of that shard only. (It demanded zero
// of the whole heap, and `-shards 2 -tlab 64 -verify-heap` panicked on the
// first shard minor.) The overlap must be what it is without the verifier.
func TestShardMinorKeepsOtherShardsTLABs(t *testing.T) {
	for _, ms := range []bool{false, true} {
		for _, w := range workloads.Tasking {
			opts := Options{
				Strategy:     gc.StratCompiled,
				HeapWords:    w.HeapWords,
				MarkSweep:    ms,
				NurseryWords: 256,
				TLABWords:    64,
				Shards:       2,
			}
			plain, err := RunTasks(w.Source, w.Entries, opts)
			if err != nil {
				t.Fatalf("%s ms=%v: %v", w.Name, ms, err)
			}
			opts.VerifyHeap = true
			res, err := RunTasks(w.Source, w.Entries, opts)
			if err != nil {
				t.Fatalf("%s ms=%v verified: %v", w.Name, ms, err)
			}
			for i, e := range w.Expect {
				if res.Values[i] != e {
					t.Errorf("%s ms=%v: task %d = %d, want %d", w.Name, ms, i, res.Values[i], e)
				}
			}
			if fmt.Sprintf("%+v", res.Stats) != fmt.Sprintf("%+v", plain.Stats) {
				t.Errorf("%s ms=%v: the verifier changed the run:\n with    %+v\n without %+v", w.Name, ms, res.Stats, plain.Stats)
			}
			if w.Name == "taskchurn" && (res.Stats.ShardMinors == 0 || res.Stats.ShardMinorOverlapTasks == 0) {
				t.Errorf("taskchurn ms=%v: no shard minor overlapped another shard's tasks: %+v", ms, res.Stats)
			}
		}
	}
}

// TestShardOOMLadderInjected drives the recovery ladder under sharding
// with injected allocation failures (satellite: the PR 7/8 seams). An
// injected failure must take the global emergency path — never a shard
// minor, whose smaller scope could mask the injection — and the run must
// still complete with correct results at every shard count.
func TestShardOOMLadderInjected(t *testing.T) {
	w, ok := workloads.TaskByName("taskchurn")
	if !ok {
		t.Fatal("taskchurn workload missing")
	}
	for _, shards := range []int{0, 4} {
		for _, refills := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/refills=%v", shards, refills), func(t *testing.T) {
				opts := Options{
					Strategy:        gc.StratCompiled,
					HeapWords:       w.HeapWords,
					VerifyHeap:      true,
					NurseryWords:    256,
					Shards:          shards,
					TLABWords:       64,
					FailAllocEvery:  50,
					FailRefillsOnly: refills,
					GrowFactor:      1.5,
					MaxHeapWords:    w.HeapWords * 8,
				}
				res, err := RunTasks(w.Source, w.Entries, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, e := range w.Expect {
					if res.Values[i] != e {
						t.Fatalf("task %d = %d, want %d (fault: %v)", i, res.Values[i], e, res.Faults[i])
					}
				}
				if res.Telemetry.Resilience.InjectedOOMs == 0 {
					t.Fatal("no failures were injected — the plan never fired")
				}
			})
		}
	}
}

// TestShardOOMLadderExhaustion pins the escalation path: a sharded heap
// too small for the workload without growth must climb from shard minors
// through the global ladder and fault tasks in isolation — never
// deadlock, never corrupt siblings' results.
func TestShardOOMLadderExhaustion(t *testing.T) {
	w, ok := workloads.TaskByName("taskchurn")
	if !ok {
		t.Fatal("taskchurn workload missing")
	}
	res, err := RunTasks(w.Source, w.Entries, Options{
		Strategy:     gc.StratCompiled,
		HeapWords:    w.HeapWords / 8,
		VerifyHeap:   true,
		NurseryWords: 128,
		Shards:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	faulted := 0
	for i := range res.Values {
		if res.Faults[i] != nil {
			faulted++
			continue
		}
		if res.Values[i] != w.Expect[i] {
			t.Fatalf("surviving task %d = %d, want %d", i, res.Values[i], w.Expect[i])
		}
	}
	rs := res.Telemetry.Resilience
	if faulted > 0 && rs.LadderExhausted == 0 {
		t.Fatalf("%d tasks faulted but the ladder counted no exhaustion", faulted)
	}
}

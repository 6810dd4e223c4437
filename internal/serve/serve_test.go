package serve

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/workloads"
)

// The serve differential pins. Closed-loop mode must be bit-identical to
// pipeline.RunTasks over the whole corpus (values, live-heap signature,
// telemetry record count) — the harness adds observation, not behavior.
// Open-loop mode at twice the sustainable arrival rate must finish with
// zero global failures: every issued request accounted as completed,
// dropped (after shed+retry), canceled (deadline), or faulted, and every
// completed request returning its expected value.

func TestClosedLoopMatchesRunTasks(t *testing.T) {
	for _, w := range workloads.Tasking {
		for _, ms := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ms=%v", w.Name, ms), func(t *testing.T) {
				opts := pipeline.Options{
					Strategy:  gc.StratCompiled,
					HeapWords: w.HeapWords,
					MarkSweep: ms,
				}
				bench, err := pipeline.RunTasks(w.Source, w.Entries, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(Config{Workload: w, Opts: opts})
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(res.Values) != fmt.Sprint(bench.Values) {
					t.Fatalf("values diverge: serve %v, bench %v", res.Values, bench.Values)
				}
				if res.Stats.Completed != int64(len(w.Entries)) || res.Stats.Faulted != 0 {
					t.Fatalf("closed loop did not complete cleanly: %+v", res.Stats)
				}
				sSig := fmt.Sprint(res.Group.Col.LiveSignature(res.Group.Globals))
				bSig := fmt.Sprint(bench.Group.Col.LiveSignature(bench.Group.Globals))
				if sSig != bSig {
					t.Fatal("live-heap signature diverges from pipeline.RunTasks")
				}
				if len(res.Group.Col.Telem.Records) != len(bench.Telemetry.Records) {
					t.Fatalf("collection record counts diverge: serve %d, bench %d",
						len(res.Group.Col.Telem.Records), len(bench.Telemetry.Records))
				}
			})
		}
	}
}

// serveWorkload returns the taskserve corpus entry.
func serveWorkload(t *testing.T) workloads.TaskWorkload {
	t.Helper()
	w, ok := workloads.TaskByName("taskserve")
	if !ok {
		t.Fatal("taskserve workload missing")
	}
	return w
}

// sustainablePeriod estimates the arrival period that matches service
// capacity: the closed-loop run's virtual length is the whole corpus's
// service demand, so demand per request divided by the server count is
// the break-even inter-arrival time.
func sustainablePeriod(t *testing.T, w workloads.TaskWorkload, opts pipeline.Options, inflight int) int64 {
	t.Helper()
	res, err := Run(Config{Workload: w, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	perReq := res.Steps / int64(len(w.Entries))
	return perReq / int64(inflight)
}

func TestOverloadTwiceSustainableAccountsEveryLoss(t *testing.T) {
	w := serveWorkload(t)
	opts := pipeline.Options{
		Strategy:    gc.StratCompiled,
		HeapWords:   w.HeapWords,
		BudgetSteps: 2_000_000,
	}
	inflight := 4
	period := sustainablePeriod(t, w, opts, inflight) / 2 // 2x the sustainable rate
	if period < 1 {
		period = 1
	}
	cfg := Config{
		Workload:    w,
		Mix:         []MixEntry{{"req_tiny", 6}, {"req_small", 3}, {"req_medium", 2}, {"req_heavy", 1}},
		Opts:        opts,
		Period:      period,
		Burst:       2,
		Requests:    200,
		Seed:        7,
		QueueDepth:  8,
		MaxInflight: inflight,
		ShedHeapPct: 85,
		MaxRetries:  3,
		Deadline:    400_000,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Completed == 0 {
		t.Fatalf("overload run completed nothing: %+v", s)
	}
	if s.Shed == 0 || s.Retries == 0 {
		t.Fatalf("2x overload never shed/retried: %+v", s)
	}
	if s.WrongResults != 0 {
		t.Fatalf("%d completed requests returned wrong values", s.WrongResults)
	}
	// The ledger (also enforced inside Run): nothing vanished.
	if s.Completed+s.Dropped+s.Canceled+s.Faulted != s.Requests {
		t.Fatalf("loss unaccounted: %+v", s)
	}
	rep := NewReport("overload", cfg, res)
	if rep.LatencyP50 <= 0 || rep.LatencyP999 < rep.LatencyP99 || rep.LatencyP99 < rep.LatencyP50 {
		t.Fatalf("latency percentiles not ordered: %+v", rep)
	}
}

func TestServeDeterminism(t *testing.T) {
	w := serveWorkload(t)
	cfg := Config{
		Workload:    w,
		Opts:        pipeline.Options{Strategy: gc.StratCompiled, HeapWords: w.HeapWords},
		Period:      300,
		Burst:       2,
		Requests:    60,
		Seed:        11,
		QueueDepth:  4,
		MaxInflight: 2,
		MaxRetries:  2,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverge across identical runs:\n  a %+v\n  b %+v", a.Stats, b.Stats)
	}
	if fmt.Sprint(a.Latencies) != fmt.Sprint(b.Latencies) {
		t.Fatal("latency samples diverge across identical runs")
	}
	if a.Steps != b.Steps {
		t.Fatalf("virtual run length diverges: %d vs %d", a.Steps, b.Steps)
	}
}

// TestDegradationLadderEscalates drives the heap-occupancy rung: a small
// nursery heap with an aggressive watermark must shed on occupancy and
// request majors, and deadline cancellation must surface as
// BudgetExceeded faults — all without a global failure.
func TestDegradationLadderEscalates(t *testing.T) {
	w := serveWorkload(t)
	cfg := Config{
		Workload: w,
		Mix:      []MixEntry{{"req_medium", 1}, {"req_heavy", 1}},
		Opts: pipeline.Options{
			Strategy:     gc.StratCompiled,
			HeapWords:    w.HeapWords,
			NurseryWords: 256,
		},
		Period:      150,
		Burst:       2,
		Requests:    80,
		Seed:        3,
		QueueDepth:  64, // deep queue: occupancy, not depth, is the watermark under test
		MaxInflight: 4,
		ShedHeapPct: 10,
		MaxRetries:  2,
		Deadline:    60_000,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.ShedHeap == 0 || s.ForcedMajors == 0 {
		t.Fatalf("occupancy rung never fired: %+v", s)
	}
	if s.Canceled == 0 {
		t.Fatalf("deadline rung never fired: %+v", s)
	}
	rs := res.Group.Col.Telem.Resilience
	if rs.BudgetFaults != s.Canceled {
		t.Fatalf("cancellations (%d) must surface as budget faults (%d)", s.Canceled, rs.BudgetFaults)
	}
}

// TestHeapWatermarkUnlatchesAfterSweep: on a mark/sweep heap Used() is the
// bump high-water mark, which fills once and never falls; the watermark
// must be judged on occupancy, which every sweep lowers. At a sustainable
// arrival rate the heap fills and is swept many times over — reading the
// high-water mark, the first fill latched the watermark and every later
// arrival was shed and dropped (596 of 600 on overload.tfs's sustained cell).
func TestHeapWatermarkUnlatchesAfterSweep(t *testing.T) {
	w := serveWorkload(t)
	cfg := Config{
		Workload:    w,
		Mix:         []MixEntry{{"req_tiny", 6}, {"req_small", 3}, {"req_medium", 2}, {"req_heavy", 1}},
		Opts:        pipeline.Options{Strategy: gc.StratCompiled, HeapWords: w.HeapWords, MarkSweep: true},
		Period:      12000,
		Burst:       1,
		Requests:    300,
		Seed:        7,
		QueueDepth:  8,
		MaxInflight: 4,
		ShedHeapPct: 85,
		MaxRetries:  3,
	}
	res, err := Run(cfg) // Run itself enforces the ledger
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	h := res.Group.Heap
	if s.Completed+s.Dropped+s.Canceled+s.Faulted != s.Requests {
		t.Fatalf("loss unaccounted: %+v", s)
	}
	if s.Completed < s.Requests*9/10 || s.WrongResults != 0 {
		t.Fatalf("a sustainable rate lost requests to a latched watermark: %+v", s)
	}
	if res.Group.Col.Stats.Collections < 3 || 100*h.Used()/h.SemiWords() < cfg.ShedHeapPct {
		t.Fatalf("the bump region never filled past the watermark (%d collections, used %d of %d): the run does not exercise the latch",
			res.Group.Col.Stats.Collections, h.Used(), h.SemiWords())
	}
}

func TestMixValidation(t *testing.T) {
	w := serveWorkload(t)
	if _, err := Run(Config{Workload: w, Mix: []MixEntry{{"nope", 1}}, Period: 10, Requests: 1}); err == nil {
		t.Fatal("unknown mix entry not rejected")
	}
	if _, err := Run(Config{Workload: w, Mix: []MixEntry{{"req_tiny", 0}}, Period: 10, Requests: 1}); err == nil {
		t.Fatal("non-positive weight not rejected")
	}
	if _, err := Run(Config{Workload: w, Period: 10}); err == nil {
		t.Fatal("open loop without Requests not rejected")
	}
	// What the front ends' ranges refuse, a Go caller is refused too where no
	// run survives it: MaxInflight -2 never admits a request, so the run
	// never ends (hence the timeout); QueueDepth -1 sheds every arrival and
	// reports success.
	for _, cfg := range []Config{
		{MaxInflight: -2}, {QueueDepth: -1}, {Burst: -1}, {MaxRetries: -1}, {Backoff: -1},
		{BackoffCap: -1}, {Deadline: -1}, {ShedHeapPct: -1}, {ShedHeapPct: 101}, {Period: -5},
	} {
		cfg.Workload = w
		if cfg.Period == 0 {
			cfg.Period, cfg.Requests = 3000, 50
		}
		done := make(chan error, 1)
		go func() { _, err := Run(cfg); done <- err }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%+v not rejected", cfg)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("Run(%+v) does not terminate", cfg)
		}
	}
}

// TestKnobRowsNameConfigFields holds the Serve rows of pipeline.Knobs, which
// name Config's fields without being able to import them, to the struct.
func TestKnobRowsNameConfigFields(t *testing.T) {
	for _, k := range pipeline.Knobs {
		if !k.Serve {
			continue
		}
		f, ok := reflect.TypeOf(Config{}).FieldByName(k.Field)
		if !ok || f.Type.Kind() != reflect.Int && f.Type.Kind() != reflect.Int64 || k.Kind != pipeline.Int {
			t.Errorf("-%s: Config has no integer field %q", k.Flag, k.Field)
		}
	}
}

// TestShardedOverloadLedgerBalances pins satellite coverage for the
// sharded heap under serving load: at every shard count the overload run
// must keep the loss ledger exact (completed+dropped+canceled+faulted ==
// requests), return only correct values, and — once there is more than
// one shard — actually run single-shard minors so the ledger is exercised
// over the sharded collection schedule, not just the global one. Each
// shard's nursery allocates in 2×NurseryWords = 2048 words.
func TestShardedOverloadLedgerBalances(t *testing.T) {
	w := serveWorkload(t)
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := pipeline.Options{
				Strategy:     gc.StratCompiled,
				HeapWords:    w.HeapWords,
				NurseryWords: 1024,
				VerifyHeap:   true,
				BudgetSteps:  2_000_000,
			}
			if shards > 1 {
				opts.Shards = shards
			}
			cfg := Config{
				Workload:    w,
				Mix:         []MixEntry{{"req_tiny", 6}, {"req_small", 3}, {"req_medium", 2}, {"req_heavy", 1}},
				Opts:        opts,
				Period:      3000,
				Burst:       1,
				Requests:    120,
				Seed:        7,
				QueueDepth:  8,
				MaxInflight: 4,
				ShedHeapPct: 85,
				MaxRetries:  3,
				Deadline:    400_000,
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			if s.Completed == 0 {
				t.Fatalf("completed nothing: %+v", s)
			}
			if s.WrongResults != 0 {
				t.Fatalf("%d completed requests returned wrong values", s.WrongResults)
			}
			if s.Completed+s.Dropped+s.Canceled+s.Faulted != s.Requests {
				t.Fatalf("loss unaccounted: %+v", s)
			}
			gs := res.Group.Stats
			if shards > 1 && gs.ShardMinors == 0 {
				t.Fatalf("shards=%d never ran a shard minor", shards)
			}
			if shards == 1 && gs.ShardMinors != 0 {
				t.Fatalf("unsharded run counted shard minors: %+v", gs)
			}
		})
	}
}

package serve_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/scenario"
	"tagfree/internal/serve"
	"tagfree/internal/workloads"
)

// The bit-identity pins. testdata/golden.json was recorded at the commit
// before arrivals moved onto a due-time heap and the scheduler onto a run
// queue with recycled stacks; every virtual-time number of an open-loop run
// (the counters, the final step count and each completed request's latency)
// must still repeat to the last digit. `go test -run TestGolden -update`
// rewrites the file — only ever from a commit whose numbers are the
// reference.
var update = flag.Bool("update", false, "rewrite testdata/golden.json from this build")

const goldenPath = "testdata/golden.json"

// goldenRun is the virtual-time outcome of one serve run.
type goldenRun struct {
	Stats     serve.Stats `json:"stats"`
	Steps     int64       `json:"steps"`
	Latencies []int64     `json:"latencies"`
}

// goldenConfigs lists the pinned runs: every serve cell of the committed
// overload scenario, and the repository benchmark's mark/sweep serve
// configuration over the taskserve classes at two seeds.
func goldenConfigs(t *testing.T) map[string]serve.Config {
	t.Helper()
	dir, err := scenario.FindCorpusDir()
	if err != nil {
		t.Fatal(err)
	}
	scs, err := scenario.LoadPath(filepath.Join(dir, "overload.tfs"))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := scenario.Compile(scs)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := map[string]serve.Config{}
	for _, c := range cells {
		if c.Serve == nil || c.Skip != "" {
			continue
		}
		cfg := *c.Serve
		cfg.Workload = c.Workload
		cfg.Opts = c.Opts
		cfgs[c.Name] = cfg
	}
	if len(cfgs) == 0 {
		t.Fatal("overload.tfs compiled to no serve cell")
	}
	for _, seed := range []int64{31, 32} {
		cfgs[fmt.Sprintf("benchmark-marksweep/seed%d", seed)] = benchmarkConfig(t, seed, 300)
	}
	return cfgs
}

// benchmarkConfig is the repository benchmark's serve configuration over
// the taskserve classes: bursts of 10 every 180 k steps (most rounds are
// idle) on a 4096-word mark/sweep heap.
func benchmarkConfig(t *testing.T, seed int64, requests int) serve.Config {
	t.Helper()
	w, ok := workloads.TaskByName("taskserve")
	if !ok {
		t.Fatal("taskserve workload missing")
	}
	return serve.Config{
		Workload: w,
		Mix: []serve.MixEntry{
			{Entry: "req_tiny", Weight: 6}, {Entry: "req_small", Weight: 3},
			{Entry: "req_medium", Weight: 2}, {Entry: "req_heavy", Weight: 1},
		},
		Opts:        pipeline.Options{Strategy: gc.StratCompiled, MarkSweep: true, HeapWords: 4096, BudgetSteps: 2_000_000},
		Period:      180_000,
		Burst:       10,
		Backoff:     8000,
		Requests:    requests,
		Seed:        seed,
		QueueDepth:  8,
		MaxInflight: 4,
		MaxRetries:  6,
		Deadline:    400_000,
	}
}

func runGolden(t *testing.T, cfg serve.Config) goldenRun {
	t.Helper()
	res, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return goldenRun{Stats: res.Stats, Steps: res.Steps, Latencies: res.Latencies}
}

func TestGoldenVirtualTime(t *testing.T) {
	cfgs := goldenConfigs(t)
	if *update {
		got := map[string]goldenRun{}
		for name, cfg := range cfgs {
			got[name] = runGolden(t, cfg)
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cfgs) {
		t.Fatalf("golden file pins %d runs, the suite has %d", len(want), len(cfgs))
	}
	for name, cfg := range cfgs {
		w, ok := want[name]
		if !ok {
			t.Fatalf("no golden for %s", name)
		}
		// The heap verifier walks the holes after every sweep and must
		// not move a single virtual-time number.
		for _, verify := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/verify=%v", name, verify), func(t *testing.T) {
				cfg := cfg
				cfg.Opts.VerifyHeap = verify
				got := runGolden(t, cfg)
				if got.Stats != w.Stats {
					t.Errorf("stats moved:\n got  %+v\n want %+v", got.Stats, w.Stats)
				}
				if got.Steps != w.Steps {
					t.Errorf("steps = %d, want %d", got.Steps, w.Steps)
				}
				if !reflect.DeepEqual(got.Latencies, w.Latencies) {
					t.Errorf("latencies moved (%d samples, golden has %d)", len(got.Latencies), len(w.Latencies))
				}
			})
		}
	}
}

// TestWallTimeLinearInRequests guards the harness's own cost on the
// benchmark's arrival schedule: 8x the requests is 8x the virtual time and
// must not cost much more than 8x the wall clock. A per-tick rescan of the
// pending arrivals, or a scheduler round that walks every task ever
// spawned, makes the run quadratic and this ratio about 60.
func TestWallTimeLinearInRequests(t *testing.T) {
	best := func(requests int) time.Duration {
		cfg := benchmarkConfig(t, 1, requests)
		var wall int64
		for i := 0; i < 3; i++ {
			res, err := serve.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 || res.WallNS < wall {
				wall = res.WallNS
			}
		}
		return time.Duration(wall)
	}
	small, large := best(500), best(4000)
	t.Logf("500 requests %v, 4000 requests %v (%.1fx)", small, large, float64(large)/float64(small))
	if large >= 20*small {
		t.Fatalf("4000 requests cost %.1fx the wall of 500", float64(large)/float64(small))
	}
}

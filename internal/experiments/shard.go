package experiments

import (
	"fmt"
	"path/filepath"

	"tagfree/internal/scenario"
	"tagfree/internal/serve"
)

// E16ShardedMinors measures what heap sharding buys under load: the
// committed overload matrix's 2x-rate scenario (testdata/scenarios/
// overload.tfs, overload-2x) re-run with a generational nursery split
// into 1/2/4/8 shards. With one shard every minor collection is
// stop-the-world — each pause parks every runnable task. With more
// shards a full nursery suspends only its own shard's tasks while the
// others keep executing their quanta; the overlap column counts, summed
// over all shard minors, how many other-shard tasks were runnable during
// a collection — mutator progress a stop-the-world minor would have
// forfeited. Tail latencies are in virtual-time steps (E14 methodology),
// so rows are deterministic and comparable.
func E16ShardedMinors() *Table {
	dir, err := scenario.FindCorpusDir()
	if err != nil {
		panic(fmt.Sprintf("E16: %v", err))
	}
	scs, err := scenario.LoadPath(filepath.Join(dir, "overload.tfs"))
	if err != nil {
		panic(fmt.Sprintf("E16: %v", err))
	}
	cells, err := scenario.Compile(scs)
	if err != nil {
		panic(fmt.Sprintf("E16: %v", err))
	}
	var base *serve.Config
	for _, c := range cells {
		if c.Scenario == "overload-2x" && c.Serve != nil && c.Skip == "" {
			// Workload and Opts stay zero in a compiled serve plan (they
			// vary per cell); fill them from the cell exactly as the matrix
			// runner does.
			cfg := *c.Serve
			cfg.Workload = c.Workload
			cfg.Opts = c.Opts
			base = &cfg
			break
		}
	}
	if base == nil {
		panic("E16: overload.tfs lost its overload-2x serve cell")
	}

	t := &Table{
		ID:    "E16",
		Title: "sharded heaps: per-shard minor collection under 2x overload",
		Claim: "partitioning tasks over per-shard nurseries lets a shard collect its young generation while every other shard's mutators keep running: shard minors replace stop-the-world minors and the overlap column counts the task-quanta of mutation that would otherwise have been suspended",
		Header: []string{"shards", "done", "gcs", "shard-minors", "overlap", "overlap/minor",
			"exposures", "p50", "p99", "p999"},
	}
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := *base
		// The overload matrix runs nursery-less; sharding is nursery
		// machinery, so every row gets the same generational setup and only
		// the shard count varies. A young area of 2×(1<<11) words per shard
		// keeps minors frequent enough at this arrival rate to measure
		// overlap.
		cfg.Opts.NurseryWords = 1 << 11
		if shards > 1 {
			cfg.Opts.Shards = shards
		}
		res, err := serve.Run(cfg)
		if err != nil {
			panic(fmt.Sprintf("E16: shards=%d: %v", shards, err))
		}
		rep := serve.NewReport(fmt.Sprintf("overload-2x/sh%d", shards), cfg, res)
		gs := res.Group.Stats
		perMinor := "-"
		if gs.ShardMinors > 0 {
			perMinor = fmt.Sprintf("%.1f", float64(gs.ShardMinorOverlapTasks)/float64(gs.ShardMinors))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(shards),
			fmt.Sprintf("%d/%d", rep.Stats.Completed, rep.Stats.Requests),
			fmt.Sprint(gs.Collections),
			fmt.Sprint(gs.ShardMinors),
			fmt.Sprint(gs.ShardMinorOverlapTasks),
			perMinor,
			fmt.Sprint(gs.ShardExposures),
			fmt.Sprint(rep.LatencyP50),
			fmt.Sprint(rep.LatencyP99),
			fmt.Sprint(rep.LatencyP999),
		})
	}
	t.Notes = append(t.Notes,
		"all rows are overload-2x (period 3000, 2x the sustainable rate) with a 2×2048-word nursery per shard added; shards=1 is the unsharded generational baseline where every minor stops the world",
		"overlap sums, over all shard minors, the tasks in other shards that stayed runnable through the collection; overlap/minor is the average mutator concurrency each shard minor preserved",
		"exposures count young pointers observed escaping their shard (to a global or across shards); an exposed shard falls back to global collections until one empties the nurseries",
		"latencies are virtual-time steps, first-arrival to completion; regenerate with `tfbench e16`",
	)
	return t
}

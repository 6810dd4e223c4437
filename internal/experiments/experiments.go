// Package experiments regenerates the paper's evaluation. The PLDI'91
// paper reports no measured tables — the author states that experiments
// were planned ("what the precise space/time trade-off is remains to be
// seen from experiments", §2.4). Every claim in the paper therefore
// becomes a numbered, regenerable experiment here; EXPERIMENTS.md records
// the measured outcomes next to the claims.
//
//	E1  heap space: tagged vs tag-free object sizes
//	E2  mutator time: tag stripping/reinstating overhead and the 63-bit limit
//	E3  liveness precision: live maps vs trace-everything retention
//	E4  the compiled/interpreted space-time trade-off (plus Appel, tagged)
//	E5  gc_word elision by the §5.1 analysis
//	E6  polymorphic stack walk: O(n) incremental vs Appel's chain re-walk
//	E7  tasking: suspension latency and the Rgc check cost
//	E8  runtime type reps: the completeness gap the paper's protocol misses
//	E9  collection disciplines: copying vs mark/sweep on the same maps
//	E11 generational nursery: minor vs full collection pause (bench.go)
//	E12 per-task allocation buffers: shared-heap acquisitions per allocation
//	E13 scenario matrix: the declarative .tfs corpus, all strategies ×
//	    disciplines (scenario.go)
//	E14 overload serving: graceful degradation under open-loop arrivals
//	    (serve.go)
//	E16 sharded heaps: per-shard minor collection under overload (shard.go)
package experiments

import (
	"fmt"
	"strings"
	"time"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/workloads"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper's claim being tested
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func run(w workloads.Workload, opts pipeline.Options) (*pipeline.Result, error) {
	opts.HeapWords = w.HeapWords
	opts.MaxSteps = 2_000_000_000
	return pipeline.Run(w.Source, opts)
}

func mustRun(w workloads.Workload, opts pipeline.Options) *pipeline.Result {
	res, err := run(w, opts)
	if err != nil {
		panic(fmt.Sprintf("experiment workload %s [%v]: %v", w.Name, opts.Strategy, err))
	}
	if res.Value != w.Expect {
		panic(fmt.Sprintf("experiment workload %s [%v]: result %d, want %d",
			w.Name, opts.Strategy, res.Value, w.Expect))
	}
	return res
}

func ratio(a, b int64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

// ---------------------------------------------------------------------------
// E1 — heap space.
// ---------------------------------------------------------------------------

// E1HeapSpace measures words allocated and peak residency under the tagged
// and tag-free representations.
func E1HeapSpace() *Table {
	t := &Table{
		ID:    "E1",
		Title: "heap space: tagged vs tag-free representation",
		Claim: "\"more efficient use of heap space\" (§1): removing headers and tag bits shrinks every object",
		Header: []string{"workload", "alloc words (tagfree)", "alloc words (tagged)",
			"tagged/tagfree", "peak live (tagfree)", "peak live (tagged)"},
	}
	for _, w := range workloads.All {
		if !w.AllocHeavy {
			continue
		}
		free := mustRun(w, pipeline.Options{Strategy: gc.StratCompiled})
		tag := mustRun(w, pipeline.Options{Strategy: gc.StratTagged})
		t.Rows = append(t.Rows, []string{
			w.Name,
			fmt.Sprint(free.HeapStats.WordsAllocated),
			fmt.Sprint(tag.HeapStats.WordsAllocated),
			ratio(tag.HeapStats.WordsAllocated, free.HeapStats.WordsAllocated),
			fmt.Sprint(free.HeapStats.PeakLive),
			fmt.Sprint(tag.HeapStats.PeakLive),
		})
	}
	t.Notes = append(t.Notes,
		"cons cells: 2 words tag-free vs 3 tagged (+50%); the expected shape is a 1.3-1.5x tagged overhead on cell-heavy loads")
	return t
}

// ---------------------------------------------------------------------------
// E2 — mutator time.
// ---------------------------------------------------------------------------

// E2MutatorTags times the arithmetic-only workloads under both
// representations (identical instruction streams except the tag-handling
// arithmetic variants), and demonstrates the integer-width difference.
func E2MutatorTags(repeats int) *Table {
	t := &Table{
		ID:     "E2",
		Title:  "mutator cost of integer tags",
		Claim:  "\"the tag must be stripped off before most arithmetic operations and reinstated in the result\" (§1)",
		Header: []string{"workload", "tagfree ns/run", "tagged ns/run", "tagged/tagfree"},
	}
	for _, w := range workloads.All {
		if w.AllocHeavy {
			continue
		}
		best := func(strat gc.Strategy) int64 {
			bestNS := int64(1 << 62)
			for i := 0; i < repeats; i++ {
				start := time.Now()
				mustRun(w, pipeline.Options{Strategy: strat})
				if ns := time.Since(start).Nanoseconds(); ns < bestNS {
					bestNS = ns
				}
			}
			return bestNS
		}
		free := best(gc.StratCompiled)
		tag := best(gc.StratTagged)
		t.Rows = append(t.Rows, []string{
			w.Name, fmt.Sprint(free), fmt.Sprint(tag), ratio(tag, free),
		})
	}
	t.Notes = append(t.Notes,
		"add/sub use the 1-op tagged identities; mul/div/mod strip and reinstate — the gap grows with multiplication density",
		"tag-free integers are full 64-bit; tagged integers wrap at 63 bits (see TestTaggedIntWidth)")
	return t
}

// ---------------------------------------------------------------------------
// E3 — liveness precision.
// ---------------------------------------------------------------------------

// E3Liveness compares retention under §5.2 live maps against
// trace-everything frame maps and Appel-style per-procedure descriptors.
func E3Liveness() *Table {
	t := &Table{
		ID:    "E3",
		Title: "liveness precision: copied words per strategy",
		Claim: "\"more accurate recognition of live data and garbage\" (§1): dead slots omitted from frame maps retain less",
		Header: []string{"workload", "copied (live maps)", "copied (all slots)", "copied (appel)",
			"all/live", "collections (live)"},
	}
	for _, w := range workloads.All {
		if !w.AllocHeavy {
			continue
		}
		precise := mustRun(w, pipeline.Options{Strategy: gc.StratCompiled})
		sloppy := mustRun(w, pipeline.Options{Strategy: gc.StratCompiled, DisableLiveness: true})
		appel := mustRun(w, pipeline.Options{Strategy: gc.StratAppel})
		t.Rows = append(t.Rows, []string{
			w.Name,
			fmt.Sprint(precise.HeapStats.WordsCopied),
			fmt.Sprint(sloppy.HeapStats.WordsCopied),
			fmt.Sprint(appel.HeapStats.WordsCopied),
			ratio(sloppy.HeapStats.WordsCopied, precise.HeapStats.WordsCopied),
			fmt.Sprint(precise.HeapStats.Collections),
		})
	}
	t.Notes = append(t.Notes,
		"Appel mode also zero-fills frames at entry (uninitialized variables, §1.1.1); its copied words include dead-slot retention")
	return t
}

// ---------------------------------------------------------------------------
// E4 — the space/time trade-off.
// ---------------------------------------------------------------------------

// E4SpaceTime measures GC metadata size against collection pause time for
// all four strategies — the experiment the paper explicitly left open
// (§2.4).
func E4SpaceTime(repeats int) *Table {
	t := &Table{
		ID:    "E4",
		Title: "GC metadata size vs collection time (compiled vs interpreted vs Appel vs tagged)",
		Claim: "\"What the precise space/time trade-off is remains to be seen from experiments\" (§2.4)",
		Header: []string{"workload", "strategy", "metadata words", "pause ns/GC",
			"slots traced", "desc bytes decoded"},
	}
	for _, w := range workloads.All {
		if !w.AllocHeavy {
			continue
		}
		for _, strat := range pipeline.Strategies {
			var best *pipeline.Result
			var bestPause int64 = 1 << 62
			for i := 0; i < repeats; i++ {
				res := mustRun(w, pipeline.Options{Strategy: strat})
				if res.GCStats.Collections == 0 {
					best = res
					bestPause = 0
					break
				}
				p := res.GCStats.PauseNS / res.GCStats.Collections
				if p < bestPause {
					bestPause = p
					best = res
				}
			}
			t.Rows = append(t.Rows, []string{
				w.Name, strat.String(),
				fmt.Sprint(best.MetadataWords),
				fmt.Sprint(bestPause),
				fmt.Sprint(best.GCStats.SlotsTraced),
				fmt.Sprint(best.GCStats.DescBytesDecoded),
			})
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: compiled pauses < interpreted pauses; interpreted metadata < compiled metadata; tagged has zero metadata but pays per-object headers (E1) and scans every slot",
	)
	return t
}

// ---------------------------------------------------------------------------
// E5 — gc_word elision.
// ---------------------------------------------------------------------------

// E5GCWordElision reports the §5.1 analysis across the corpus.
func E5GCWordElision() *Table {
	t := &Table{
		ID:    "E5",
		Title: "gc_word elision by the GC-possible analysis",
		Claim: "\"no garbage collection code need be generated to trace the variables of the calling procedure\" (§1, §5.1; higher-order case via 0-CFA)",
		Header: []string{"workload", "sites", "direct calls", "elided",
			"clos calls", "elided (0-CFA)", "empty frame maps"},
	}
	for _, w := range workloads.All {
		prog, anal, err := pipeline.Build(w.Source, pipeline.Options{Strategy: gc.StratCompiled})
		if err != nil {
			panic(err)
		}
		_, cfaAnal, err := pipeline.Build(w.Source, pipeline.Options{Strategy: gc.StratCompiled, UseCFA: true})
		if err != nil {
			panic(err)
		}
		empty := 0
		for _, si := range prog.Sites {
			if len(si.Live) == 0 {
				empty++
			}
		}
		t.Rows = append(t.Rows, []string{
			w.Name,
			fmt.Sprint(anal.Stats.Sites),
			fmt.Sprint(anal.Stats.DirectCallSites),
			fmt.Sprint(anal.Stats.ElidedSites),
			fmt.Sprint(anal.Stats.ClosCallSites),
			fmt.Sprint(cfaAnal.Stats.ElidedClosSites),
			fmt.Sprint(empty),
		})
	}
	t.Notes = append(t.Notes,
		"empty frame maps are the paper's no_trace routines: a gc_word shared by every site with nothing live",
		"arithmetic-only workloads (fib, tak) elide every direct call site",
		"the 0-CFA column implements the higher-order analysis the paper defers to abstract interpretation (§5.1)")
	return t
}

// ---------------------------------------------------------------------------
// E6 — polymorphic stack walk.
// ---------------------------------------------------------------------------

// deepPolySrc builds a polymorphic frame tower of the given depth and
// forces a collection near the top.
func deepPolySrc(depth int) (string, int64) {
	src := fmt.Sprintf(`
let probe x = (let _ = [x; x] in 1)
let rec pdepth x acc n =
  if n = 0 then acc
  else probe x + pdepth x acc (n - 1)
let main () = pdepth (1, true) 0 %d
`, depth)
	return src, int64(depth)
}

// E6PolyWalk compares the incremental oldest→newest walk against Appel's
// per-frame chain re-walk as polymorphic stack depth grows.
func E6PolyWalk() *Table {
	t := &Table{
		ID:     "E6",
		Title:  "polymorphic type resolution work vs stack depth",
		Claim:  "\"the stack is traversed at most twice\" (§3) vs Appel's per-frame chain walk (§1.1.1)",
		Header: []string{"depth", "frames traced (compiled)", "chain steps (appel)", "appel/compiled"},
	}
	for _, depth := range []int{50, 100, 200, 400} {
		src, want := deepPolySrc(depth)
		// Size the heap so a collection happens near full depth: each
		// level allocates two cons cells (4 words).
		heapWords := depth * 3 // forces one GC around 3/4 depth
		if heapWords < 128 {
			heapWords = 128
		}
		opts := func(s gc.Strategy) pipeline.Options {
			return pipeline.Options{Strategy: s, HeapWords: heapWords, MaxSteps: 1 << 40}
		}
		comp, err := pipeline.Run(src, opts(gc.StratCompiled))
		if err != nil {
			panic(err)
		}
		app, err := pipeline.Run(src, opts(gc.StratAppel))
		if err != nil {
			panic(err)
		}
		if comp.Value != want || app.Value != want {
			panic("E6: wrong result")
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(depth),
			fmt.Sprint(comp.GCStats.FramesTraced),
			fmt.Sprint(app.GCStats.ChainSteps),
			ratio(app.GCStats.ChainSteps, comp.GCStats.FramesTraced),
		})
	}
	t.Notes = append(t.Notes,
		"compiled-mode work grows linearly with depth; Appel chain steps grow quadratically (the appel/compiled column grows with depth)")
	return t
}

// ---------------------------------------------------------------------------
// E7 — tasking.
// ---------------------------------------------------------------------------

// E7Tasking measures suspension latency and Rgc check counts as the number
// of tasks grows.
func E7Tasking() *Table {
	t := &Table{
		ID:    "E7",
		Title: "tasking: suspension latency and Rgc checks vs task count and policy",
		Claim: "the paper's two §4 policies: Rgc checked at every call (cheap suspension) vs only in allocation routines (fewer checks, longer waits)",
		Header: []string{"tasks", "policy", "collections", "max suspend latency (instrs)",
			"avg suspend latency", "Rgc checks", "instructions"},
	}
	src := `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let round () = sum (upto 25)
let rec work rounds acc =
  if rounds = 0 then acc
  else work (rounds - 1) (acc + round ())
let t0 () = work 40 0
let t1 () = work 40 0
let t2 () = work 40 0
let t3 () = work 40 0
let t4 () = work 40 0
let t5 () = work 40 0
let t6 () = work 40 0
let t7 () = work 40 0
`
	for _, n := range []int{1, 2, 4, 8} {
		entries := make([]string, n)
		for i := range entries {
			entries[i] = fmt.Sprintf("t%d", i)
		}
		for _, atAllocs := range []bool{false, true} {
			res, err := pipeline.RunTasks(src, entries, pipeline.Options{
				Strategy:        gc.StratCompiled,
				HeapWords:       2048,
				SuspendAtAllocs: atAllocs,
			})
			if err != nil {
				panic(err)
			}
			var maxL, sumL int64
			for _, l := range res.Stats.SuspendLatency {
				if l > maxL {
					maxL = l
				}
				sumL += l
			}
			avg := "-"
			if len(res.Stats.SuspendLatency) > 0 {
				avg = fmt.Sprintf("%.0f", float64(sumL)/float64(len(res.Stats.SuspendLatency)))
			}
			policy := "at-calls"
			if atAllocs {
				policy = "at-allocs"
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n),
				policy,
				fmt.Sprint(res.Stats.Collections),
				fmt.Sprint(maxL),
				avg,
				fmt.Sprint(res.Stats.RgcChecks),
				fmt.Sprint(res.Stats.Instructions),
			})
		}
	}
	t.Notes = append(t.Notes,
		"at-calls: latency bounded by the longest inter-call gap of any running task",
		"at-allocs: roughly half the checks, but tasks between allocations run on — the paper's \"might allow some processes to run for a long time while others are suspended\"",
	)
	return t
}

// ---------------------------------------------------------------------------
// E8 — runtime type reps.
// ---------------------------------------------------------------------------

// E8RuntimeReps quantifies the extension the paper's stack-only protocol
// cannot express: closures whose captured values' types do not occur in
// their own arrow type need type-rep words stored at creation, and their
// creators need hidden rep arguments.
func E8RuntimeReps() *Table {
	t := &Table{
		ID:    "E8",
		Title: "runtime type representations for phantom-typed closures",
		Claim: "the paper claims zero runtime cost (§6.1); escaping polymorphic-capture closures falsify it — this measures the minimal cost",
		Header: []string{"workload", "funcs", "rep-arg funcs", "rep-storing closures",
			"interned reps after run", "result ok"},
	}
	for _, w := range workloads.All {
		prog, anal, err := pipeline.Build(w.Source, pipeline.Options{Strategy: gc.StratCompiled})
		if err != nil {
			panic(err)
		}
		_ = anal
		repArgFuncs, repClosures := 0, 0
		for _, fi := range prog.Funcs {
			if fi.NRepArgs > 0 {
				repArgFuncs++
			}
			if fi.NumRepWords > 0 {
				repClosures++
			}
		}
		res, err := pipeline.RunProgram(prog, anal, pipeline.Options{
			Strategy: gc.StratCompiled, HeapWords: w.HeapWords, MaxSteps: 1 << 40})
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			w.Name,
			fmt.Sprint(len(prog.Funcs)),
			fmt.Sprint(repArgFuncs),
			fmt.Sprint(repClosures),
			fmt.Sprint(prog.Reps.Len()),
			fmt.Sprint(res.Value == w.Expect),
		})
	}
	t.Notes = append(t.Notes,
		"only 'thunks' needs reps: the mechanism costs nothing unless a phantom-typed capture escapes — quantifying how close the paper's zero-overhead claim is to true",
	)
	return t
}

// All runs every experiment.
func All(repeats int) []*Table {
	return []*Table{
		E1HeapSpace(),
		E2MutatorTags(repeats),
		E3Liveness(),
		E4SpaceTime(repeats),
		E5GCWordElision(),
		E6PolyWalk(),
		E7Tasking(),
		E8RuntimeReps(),
		E9MarkSweep(repeats),
		E11Generational(),
		E12AllocContention(),
		E13ScenarioMatrix(),
		E14Overload(),
		E16ShardedMinors(),
	}
}

// ---------------------------------------------------------------------------
// E9 — collection disciplines.
// ---------------------------------------------------------------------------

// E9MarkSweep compares semispace copying against mark/sweep under the same
// compiled frame maps — the paper's "our method will support mark/sweep
// collection as well" (§2), measured.
func E9MarkSweep(repeats int) *Table {
	t := &Table{
		ID:    "E9",
		Title: "collection discipline: copying vs mark/sweep over the same frame maps",
		Claim: "\"our method will support mark/sweep collection as well\" (§2)",
		Header: []string{"workload", "discipline", "collections", "pause ns/GC",
			"words copied/marked", "peak live"},
	}
	for _, w := range workloads.All {
		if !w.AllocHeavy {
			continue
		}
		for _, ms := range []bool{false, true} {
			name := "copying"
			if ms {
				name = "mark/sweep"
			}
			var best *pipeline.Result
			var bestPause int64 = 1 << 62
			for i := 0; i < repeats; i++ {
				res := mustRun(w, pipeline.Options{Strategy: gc.StratCompiled, MarkSweep: ms})
				if res.GCStats.Collections == 0 {
					best = res
					bestPause = 0
					break
				}
				p := res.GCStats.PauseNS / res.GCStats.Collections
				if p < bestPause {
					bestPause = p
					best = res
				}
			}
			t.Rows = append(t.Rows, []string{
				w.Name, name,
				fmt.Sprint(best.HeapStats.Collections),
				fmt.Sprint(bestPause),
				fmt.Sprint(best.HeapStats.WordsCopied),
				fmt.Sprint(best.HeapStats.PeakLive),
			})
		}
	}
	t.Notes = append(t.Notes,
		"identical frame maps drive both disciplines; mark/sweep marks in place (no copy bandwidth) but sweeps the whole space and cannot compact",
		"mark/sweep collects less often at equal usable words: copying reserves half the space as to-space",
		"developing this mode exposed a real collector soundness bug (recursive polymorphic calls passed no type arguments) that copying masked — see DESIGN.md §8",
	)
	return t
}

// ---------------------------------------------------------------------------
// E12 — allocation contention.
// ---------------------------------------------------------------------------

// E12AllocContention measures shared-heap pressure on the allocation path
// as tasks churn, with and without per-task allocation buffers. Every
// allocation without a buffer acquires the shared heap; with -tlab each
// task bump-allocates privately and touches the shared heap only to carve
// a chunk, so acquisitions fall to O(allocs/chunk) plus the slow path.
func E12AllocContention() *Table {
	t := &Table{
		ID:    "E12",
		Title: "per-task allocation buffers: shared-heap acquisitions per allocation",
		Claim: "a private bump buffer per task turns the shared allocation path into an amortized O(1/chunk) refill protocol without changing a single computed value (the differential suite's bit-identical live heaps)",
		Header: []string{"workload", "tlab", "allocs", "shared acqs", "acqs/alloc",
			"refills", "fast allocs", "waste words", "collections"},
	}
	for _, name := range []string{"taskchurn", "tasktree"} {
		w, ok := workloads.TaskByName(name)
		if !ok {
			panic("E12: unknown workload " + name)
		}
		for _, tlab := range []int{0, 64} {
			res, err := pipeline.RunTasks(w.Source, w.Entries, pipeline.Options{
				Strategy:  gc.StratCompiled,
				HeapWords: w.HeapWords,
				TLABWords: tlab,
			})
			if err != nil {
				panic(err)
			}
			hs := res.Heap
			t.Rows = append(t.Rows, []string{
				w.Name,
				fmt.Sprint(tlab),
				fmt.Sprint(hs.Allocations),
				fmt.Sprint(hs.SharedAllocs),
				fmt.Sprintf("%.3f", float64(hs.SharedAllocs)/float64(hs.Allocations)),
				fmt.Sprint(hs.TLABRefills),
				fmt.Sprint(hs.TLABAllocs),
				fmt.Sprint(hs.TLABWasteWords),
				fmt.Sprint(res.Stats.Collections),
			})
		}
	}
	t.Notes = append(t.Notes,
		"shared acqs counts every shared-heap allocation entry: direct Allocs plus TLAB chunk carves (heap.Stats.SharedAllocs)",
		"tasks are scheduled round-robin on one OS thread, so acqs/alloc measures protocol pressure, not measured lock wait",
		"waste words are buffer tails retired unreachable by the heap frontier; on mark/sweep they land on the exact-size free list instead (heap/tlab.go)",
		"tlab=0 rows are the unchanged baseline allocation path, pinned bit-identical by the differential goldens",
	)
	return t
}

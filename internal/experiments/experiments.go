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
//
// List is the one registry of these tables: tfbench runs it, All and the
// tests read it. The repository's optional modes (nursery, TLABs, shards,
// serving) have no table here; tfbench telemetry and tfgc serve print their
// counts.
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

// build compiles w with the experiments' heap size and step limit and returns
// a function that runs the program once, panicking unless the run computes
// the workload's value.
func build(w workloads.Workload, opts pipeline.Options) func() *pipeline.Result {
	opts.HeapWords = w.HeapWords
	opts.MaxSteps = 2_000_000_000
	prog, anal, err := pipeline.Build(w.Source, opts)
	if err != nil {
		panic(fmt.Sprintf("experiment workload %s [%v]: %v", w.Name, opts.Strategy, err))
	}
	return func() *pipeline.Result {
		res, err := pipeline.RunProgram(prog, anal, opts)
		if err == nil && res.Value != w.Expect {
			err = fmt.Errorf("result %d, want %d", res.Value, w.Expect)
		}
		if err != nil {
			panic(fmt.Sprintf("experiment workload %s [%v]: %v", w.Name, opts.Strategy, err))
		}
		return res
	}
}

func mustRun(w workloads.Workload, opts pipeline.Options) *pipeline.Result {
	return build(w, opts)()
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
		// The program is built once, outside the timer: a run is the
		// mutator and its collections, not the parser and the compiler.
		best := func(strat gc.Strategy) int64 {
			runOnce := build(w, pipeline.Options{Strategy: strat})
			bestNS := int64(1 << 62)
			for i := 0; i < repeats; i++ {
				start := time.Now()
				runOnce()
				bestNS = min(bestNS, time.Since(start).Nanoseconds())
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
		"ns/run times pipeline.RunProgram on a program built once, outside the timer",
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

// Experiment is one table by its tfbench name ("e1" for E1). Run takes the
// timing repetitions; only E2, E4 and E9 time anything, the rest ignore it.
type Experiment struct {
	Name string
	Run  func(repeats int) *Table
}

// List is every experiment in the order tfbench prints them.
var List = []Experiment{
	{"e1", func(int) *Table { return E1HeapSpace() }},
	{"e2", E2MutatorTags},
	{"e3", func(int) *Table { return E3Liveness() }},
	{"e4", E4SpaceTime},
	{"e5", func(int) *Table { return E5GCWordElision() }},
	{"e6", func(int) *Table { return E6PolyWalk() }},
	{"e7", func(int) *Table { return E7Tasking() }},
	{"e8", func(int) *Table { return E8RuntimeReps() }},
	{"e9", E9MarkSweep},
}

// All runs every experiment of List.
func All(repeats int) []*Table {
	tables := make([]*Table, len(List))
	for i, e := range List {
		tables[i] = e.Run(repeats)
	}
	return tables
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

package pipeline

// The mode lattice. The paper's claim is that frame maps alone suffice to
// trace precisely, so no mode stacked on the collector may change what the
// plain sequential oldest→newest collector leaves. A cell is a program at a
// point of the lattice — strategy × discipline × nursery × tlab × shards ×
// torture × fail-every × suspend-at-allocs × the group's quantum — legal iff
// no Rule refuses it, and held to its oracle (the same discipline, no other
// mode, and the unplanned strategy: a compiled cell's oracle is interp, which
// resolves the same frame maps afresh at every collection) by one invariant
// set:
//
//   - the values (and the program's known result), outputs and faults;
//   - the end-of-run gc.LiveSignature, equal to the oracle's;
//   - the live words after each collection, where the two collect at the
//     same points (they differ in the strategy alone);
//   - on a copying heap without a nursery, the active space after a final
//     full collection, word for word;
//   - every allocation buffer retired and accounted, every shard minor
//     recorded;
//   - plan activity (frame plans, trace kernels) in a compiled cell that
//     collected, and in no other cell and no oracle.
//
// The engagement table holds each knob to its telemetry; a refused cell fails
// with the first sentence of the rules it breaks; the verifier runs after
// every collection. Tier 1 runs a pairwise-covering set of cells over the
// single-task corpus, the task corpus and the showcase, GC_TORTURE_FULL=1
// every legal point. A cell's subtest is named by its flags (the testing
// package writes a space as _), so one replays with, e.g.,
//
//	go test ./internal/pipeline -run 'TestTLABTortureCompletes/taskmutate/ms=true/-marksweep_-tlab_64_-gc-torture$'
//
// — a view, one of the named slices of the lattice at the end of this file.

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// latticeProg is a task workload, or a single-task program (no entries).
type latticeProg struct {
	name    string
	src     string
	entries []string
	expect  []int64 // nil: no known result; the oracle's values stand
	heap    int     // copying semispace words; a mark/sweep heap gets both halves
}

func (p latticeProg) single() bool { return p.entries == nil }

var (
	latticeSingles = singleProgs(workloads.All)
	latticeTasks   = func() (out []latticeProg) {
		for _, w := range workloads.Tasking {
			out = append(out, latticeProg{w.Name, w.Source, w.Entries, w.Expect, w.HeapWords})
		}
		return out
	}()
	latticeCorpus = slices.Concat(latticeSingles, latticeTasks, singleProgs(workloads.Showcase))
	// latticeFull is GC_TORTURE_FULL: every legal point, not a pairwise cover.
	latticeFull = os.Getenv("GC_TORTURE_FULL") != ""
)

func singleProgs(ws []workloads.Workload) (out []latticeProg) {
	for _, w := range ws {
		out = append(out, latticeProg{w.Name, w.Source, nil, []int64{w.Expect}, w.HeapWords})
	}
	return out
}

// cell is one program at one point of the lattice. The quantum (0: the
// group's default), SuspendAtAllocs and ShardAssign are test-side knobs.
type cell struct {
	prog    latticeProg
	opts    Options
	quantum int
}

// The modes, each what it sets on a cell.
func plain(*cell)                        {}
func strategy(s gc.Strategy) func(*cell) { return func(c *cell) { c.opts.Strategy = s } }
func markSweep(c *cell)                  { c.opts.MarkSweep = true }
func nursery(c *cell)                    { c.opts.NurseryWords = 256 }
func tlab(c *cell)                       { c.opts.TLABWords = 64 }
func shards(c *cell)                     { c.opts.Shards = 2 }
func torture(c *cell)                    { c.opts.Torture = true }
func failEvery(c *cell)                  { c.opts.FailAllocEvery = 50 }
func atAllocs(c *cell)                   { c.opts.SuspendAtAllocs = true }
func quantum7(c *cell)                   { c.quantum = 7 }

func with(modes ...func(*cell)) func(*cell) {
	return func(c *cell) {
		for _, m := range modes {
			m(c)
		}
	}
}

// latticeAxes are the dimensions after the program; value 0 of each is off.
var latticeAxes = [][]func(*cell){
	{plain, strategy(gc.StratInterp), strategy(gc.StratAppel), strategy(gc.StratTagged)},
	{plain, markSweep}, {plain, nursery}, {plain, tlab}, {plain, shards},
	{plain, torture}, {plain, failEvery}, {plain, atAllocs}, {plain, quantum7},
}

// pointCell builds the cell at a point: a corpus index, then a value per axis.
func pointCell(pt []int) cell {
	c := cell{prog: latticeCorpus[pt[0]]}
	for i, v := range pt[1:] {
		latticeAxes[i][v](&c)
	}
	return c
}

// latticePoints lists every point of the axes, at program 0.
func latticePoints() (out [][]int) {
	for pt := make([]int, 1+len(latticeAxes)); ; {
		out = append(out, slices.Clone(pt))
		i := len(pt) - 1
		for ; i > 0 && pt[i] == len(latticeAxes[i-1])-1; i-- {
			pt[i] = 0
		}
		if i == 0 {
			return out
		}
		pt[i]++
	}
}

// legal: no rule refuses the cell on its run path, and it does not torture
// a heavy program.
func (c cell) legal() bool {
	return len(c.opts.violated(c.prog.single())) == 0 && !(c.opts.Torture && heavy(c.prog))
}

var heavyOnce sync.Once
var heavyProgs = map[string]bool{}

// heavy: the program allocates more than 5 000 objects (tortureAllocLimit
// under latticeFull). A collection and a verifier pass per allocation of
// those is seconds, tens of them under Appel's chain walk, and proves
// nothing the smaller programs do not.
func heavy(p latticeProg) bool {
	heavyOnce.Do(func() {
		limit := int64(5_000)
		if latticeFull {
			limit = tortureAllocLimit
		}
		for _, q := range latticeCorpus {
			r, err := cell{prog: q}.oracle().memo()
			heavyProgs[q.name] = err == nil && r.allocations > limit
		}
	})
	return heavyProgs[p.name]
}

// name is the program, then the cell's flags read off Knobs — every knob it
// sets but the heap size and the verifier, which every cell has — then its
// test-side knobs.
func (c cell) name() string {
	var parts []string
	ov := reflect.ValueOf(c.opts)
	for _, k := range Knobs {
		if f := ov.FieldByName(k.Field); k.Serve || k.Flag == "heap" || k.Flag == "verify-heap" || f.IsZero() {
			continue
		} else if k.Kind == Bool {
			parts = append(parts, "-"+k.Flag)
		} else {
			parts = append(parts, fmt.Sprintf("-%s %v", k.Flag, f.Interface()))
		}
	}
	if c.opts.DisableLiveness {
		parts = append(parts, "no-liveness")
	}
	if c.opts.SuspendAtAllocs {
		parts = append(parts, "at-allocs")
	}
	if c.opts.ShardAssign != nil {
		parts = append(parts, fmt.Sprintf("assign=%v", c.opts.ShardAssign))
	}
	if c.quantum > 0 {
		parts = append(parts, fmt.Sprintf("quantum=%d", c.quantum))
	}
	if len(parts) == 0 {
		parts = []string{"plain"}
	}
	return c.prog.name + "/" + strings.Join(parts, " ")
}

// unplanned is the strategy that resolves s's frame maps afresh at every
// collection: interp for compiled, whose collections trace through frame
// plans and kernels; s itself otherwise.
func unplanned(s gc.Strategy) gc.Strategy {
	if s == gc.StratCompiled {
		return gc.StratInterp
	}
	return s
}

func (c cell) oracle() cell {
	return cell{prog: c.prog, opts: Options{Strategy: unplanned(c.opts.Strategy), MarkSweep: c.opts.MarkSweep}}
}

// aligned: the cell collects where its oracle does.
func (c cell) aligned() bool {
	o := c.opts
	o.Strategy = unplanned(o.Strategy)
	return c.quantum == 0 && reflect.DeepEqual(o, c.oracle().opts)
}

// result is what a finished cell is compared by.
type result struct {
	values                   []int64
	outputs, faults          []string    // outputs[0] is the init task's
	sig                      []code.Word // end-of-run LiveSignature
	lives                    []int64     // live words after each collection
	snap                     []code.Word // copying, no nursery: the active space after a full collection
	collections, allocations int64
	planned                  int64 // plan lookups and kernel-traced words
}

// run executes the cell with the verifier on and returns its finished group;
// err is a refusal, a compile error or a panic of the run, a *gc.VerifyError
// among them.
func (c cell) run() (g *tasking.Group, r *result, err error) {
	defer recovered(&err)
	opts := c.opts
	opts.VerifyHeap, opts.HeapWords = true, c.prog.heap
	if opts.MarkSweep {
		opts.HeapWords *= 2
	}
	var entries []int
	if c.prog.single() { // Run's path: gc_words elided, main the group's one task
		var prog *code.Program
		if prog, _, err = Build(c.prog.src, opts); err == nil {
			g, err = newGroup(prog, opts, true)
			entries = []int{prog.MainFunc}
		}
	} else {
		g, entries, err = BuildTaskGroup(c.prog.src, c.prog.entries, opts)
	}
	if err != nil {
		return nil, nil, err
	}
	if c.prog.single() {
		g.Policy = tasking.SuspendAtAllocs
	}
	if c.quantum > 0 {
		g.Quantum = c.quantum
	}
	hooked := int64(0) // a hook set before the run runs after the buffers' retirement, not instead
	g.Col.PreCollect = func([]gc.TaskRoots) { hooked++ }
	for _, e := range entries {
		g.Spawn(e)
	}
	if err := g.RunInit(); err != nil {
		return nil, nil, err
	}
	if err := g.Run(); err != nil {
		return nil, nil, err
	}
	if n := g.Heap.Stats.Collections - g.Stats.ShardMinors; hooked != n {
		return nil, nil, fmt.Errorf("a PreCollect hook set before the run ran at %d of %d global collections", hooked, n)
	}
	r = &result{outputs: []string{g.InitTask().Out.String()}}
	for _, t := range g.Tasks {
		v := int64(0)
		if t.Status != tasking.Faulted {
			v = code.DecodeInt(g.Prog.Repr, t.Result)
		}
		r.values, r.outputs, r.faults = append(r.values, v), append(r.outputs, t.Out.String()), append(r.faults, fmt.Sprint(t.Fault))
	}
	r.sig, r.lives = g.Col.LiveSignature(g.Globals), g.Col.Telem.LiveWordsPerCollection()
	r.collections, r.allocations = g.Heap.Stats.Collections, g.Heap.Stats.Allocations
	r.planned = g.Col.Stats.PlanHits + g.Col.Stats.PlanMisses + g.Col.Stats.KernelWords
	if !opts.MarkSweep && opts.NurseryWords == 0 {
		// The globals are the only roots left, so a full collection lays the
		// live heap out in trace order; a second one if need be brings every
		// run to the same semispace.
		for g.Col.CollectFull(nil, g.Globals); g.Heap.Stats.Collections%2 == 1; {
			g.Col.CollectFull(nil, g.Globals)
		}
		r.snap = g.Heap.ActiveSnapshot()
	}
	return g, r, nil
}

// recovered, deferred by a runner, returns a panic of the run as its error
// (a *gc.VerifyError as it is, any other with its stack), so that one failing
// run fails one test and the package's later tests still report.
func recovered(err *error) {
	if v := recover(); v != nil {
		if ve, ok := v.(*gc.VerifyError); ok {
			*err = ve
		} else {
			*err = fmt.Errorf("panic: %v\n%s", v, debug.Stack())
		}
	}
}

// latticeMemo holds, by name, the result of every cell run as an oracle or a
// measure.
var latticeMemo sync.Map

func (c cell) memo() (*result, error) {
	f, _ := latticeMemo.LoadOrStore(c.name(), sync.OnceValues(func() (*result, error) {
		_, r, err := c.run()
		return r, err
	}))
	return f.(func() (*result, error))()
}

// checkCell runs a legal cell, holds it to its oracle and to the engagement
// table, and returns its finished group.
func checkCell(t *testing.T, c cell) *tasking.Group {
	t.Helper()
	o, err := c.oracle().memo()
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if c.prog.expect != nil && !slices.Equal(o.values, c.prog.expect) {
		t.Fatalf("oracle computes %v, want %v", o.values, c.prog.expect)
	}
	g, r, err := c.run()
	switch {
	case err != nil:
		t.Fatal(err)
	case !slices.Equal(r.values, o.values) || !slices.Equal(r.faults, o.faults):
		t.Fatalf("values %v, faults %q; the oracle's %v, %q", r.values, r.faults, o.values, o.faults)
	case !slices.Equal(r.outputs, o.outputs):
		t.Fatal("outputs diverge from the oracle's")
	case !slices.Equal(r.sig, o.sig):
		t.Fatalf("live-heap signature diverges: %d words, the oracle's %d", len(r.sig), len(o.sig))
	}
	if c.aligned() && !slices.Equal(r.lives, o.lives) {
		t.Fatalf("live words per collection diverge:\n  cell   %v\n  oracle %v", r.lives, o.lives)
	}
	if r.snap != nil && o.snap != nil && !slices.Equal(r.snap, o.snap) {
		t.Fatalf("active space after a full collection diverges: %d words, the oracle's %d", len(r.snap), len(o.snap))
	}
	if want := c.opts.Strategy == gc.StratCompiled && r.collections > 0; o.planned != 0 || (r.planned > 0) != want {
		t.Errorf("plan activity %d, the oracle's %d: a compiled cell that collects shows some, every other run none", r.planned, o.planned)
	}
	hs, tl := g.Heap.Stats, tasking.TLABStats{}
	for _, tk := range g.Tasks {
		tl.Refills, tl.WasteWords = tl.Refills+tk.TLAB.Refills, tl.WasteWords+tk.TLAB.WasteWords+tk.TLAB.ReturnedWords
	}
	if g.Heap.LiveTLABs() != 0 || hs.TLABRefillWords != hs.TLABAllocWords+hs.TLABWasteWords+hs.TLABReturnedWords ||
		tl.Refills > hs.TLABRefills || tl.WasteWords > hs.TLABWasteWords+hs.TLABReturnedWords {
		t.Errorf("buffer accounting: %d live, heap %+v, tasks %+v", g.Heap.LiveTLABs(), hs, tl)
	}
	if n := records(g, func(r *gc.CollectionRecord) bool { return r.Shard > 0 }); n != g.Stats.ShardMinors {
		t.Errorf("%d shard minors, %d shard records", g.Stats.ShardMinors, n)
	}
	for _, e := range engagement {
		switch ran := e.ran(g); {
		case e.masked != nil && e.masked(c, g):
		case e.on(c.opts) && !ran && o.collections > 0:
			t.Errorf("%s: the mode never ran", e.knob)
		case !e.on(c.opts) && ran:
			t.Errorf("%s: off, but the telemetry shows it", e.knob)
		}
	}
	return g
}

// records counts the collections f holds for.
func records(g *tasking.Group, f func(r *gc.CollectionRecord) bool) (n int64) {
	for i := range g.Col.Telem.Records {
		if f(&g.Col.Telem.Records[i]) {
			n++
		}
	}
	return n
}

// engagement has one row per knob: ran reads off a finished group whether the
// mode ran. A cell that asks for it (on) must show it — where its oracle
// collected at all — and one that does not must show no trace of it, unless
// the cell masks the mode.
var engagement = []struct {
	knob   string
	on     func(o Options) bool
	masked func(c cell, g *tasking.Group) bool
	ran    func(g *tasking.Group) bool
}{
	{"gc-nursery", func(o Options) bool { return o.NurseryWords > 0 }, nil, func(g *tasking.Group) bool {
		return g.Heap.Stats.MinorCollections+g.Heap.Stats.PromotedWords+records(g, func(r *gc.CollectionRecord) bool {
			return r.Kind != "" || r.PromotedWords != 0 || r.Remembered != 0 || r.BarrierHits != 0
		}) > 0
	}},
	{"tlab", func(o Options) bool { return o.TLABWords > 0 }, nil, func(g *tasking.Group) bool {
		hs := g.Heap.Stats
		return hs.TLABAllocs+hs.TLABRefills+hs.TLABWasteWords+hs.TLABReturnedWords > 0 || hs.SharedAllocs < hs.Allocations ||
			records(g, func(r *gc.CollectionRecord) bool { return r.TLAB != nil }) > 0 ||
			strings.Contains(TelemetryTable(&g.Col.Telem, TelemetryOptions{OmitTiming: true}), "tlab")
	}},
	// Under a short quantum a shard's tasks exhaust its nursery in lockstep and
	// the second raises a global wave (ROADMAP, Known defects).
	{"shards", func(o Options) bool { return o.Shards > 1 }, func(c cell, g *tasking.Group) bool {
		return forcedCollections(c, g) || c.quantum > 0
	}, func(g *tasking.Group) bool {
		return g.Stats.ShardMinors+g.Stats.ShardMinorOverlapTasks > 0
	}},
	{"gc-torture", func(o Options) bool { return o.Torture }, nil, func(g *tasking.Group) bool {
		return g.Col.Telem.Resilience.TortureCollections > 0
	}},
	{"fail-every", func(o Options) bool { return o.FailAllocEvery > 0 }, func(c cell, _ *tasking.Group) bool {
		return c.opts.Torture // whose plan runs first
	}, func(g *tasking.Group) bool { return g.Col.Telem.Resilience.InjectedOOMs > 0 }},
}

// forcedCollections: torture and injected failures collect globally, so a
// shard's own minors may never come due.
func forcedCollections(c cell, _ *tasking.Group) bool {
	return c.opts.Torture || c.opts.FailAllocEvery > 0
}

// latticePairwise returns cells covering every pair of values of two axes —
// the program one of them — that some legal cell has, with the number of
// such pairs and of those left uncovered. Each cell is greedy: of the legal
// cells with the first pair no cell covers yet, the one that covers most
// uncovered pairs (the first such, so the sparsest).
func latticePairwise() (cells []cell, legalPairs, uncovered int) {
	offs, axisOf := []int{0}, make([]int, len(latticeCorpus))
	for i, a := range latticeAxes {
		offs = append(offs, len(axisOf))
		for range a {
			axisOf = append(axisOf, i+1)
		}
	}
	nv := len(axisOf)
	legal, covered := make([]bool, nv*nv), make([]bool, nv*nv)
	pairs := func(pt []int, f func(id int)) {
		for i := range pt {
			for j := i + 1; j < len(pt); j++ {
				f((offs[i]+pt[i])*nv + offs[j] + pt[j])
			}
		}
	}
	var points [][]int // every legal point, program included
	for _, pt := range latticePoints() {
		for p := range latticeCorpus {
			if pt[0] = p; pointCell(pt).legal() {
				points = append(points, slices.Clone(pt))
				pairs(pt, func(id int) {
					if !legal[id] {
						legal[id], legalPairs = true, legalPairs+1
					}
				})
			}
		}
	}
	for id := range legal {
		if !legal[id] || covered[id] {
			continue
		}
		a, b := id/nv, id%nv
		best, bestGain := -1, 0
		for k, pt := range points {
			if pt[axisOf[a]] != a-offs[axisOf[a]] || pt[axisOf[b]] != b-offs[axisOf[b]] {
				continue
			}
			gain := 0
			pairs(pt, func(id int) {
				if !covered[id] {
					gain++
				}
			})
			if gain > bestGain {
				best, bestGain = k, gain
			}
		}
		pairs(points[best], func(id int) { covered[id] = true })
		cells = append(cells, pointCell(points[best]))
	}
	for id := range legal {
		if legal[id] && !covered[id] {
			uncovered++
		}
	}
	return cells, legalPairs, uncovered
}

// TestModeLattice runs the pairwise-covering cells — every legal point under
// GC_TORTURE_FULL, each on the next program that may take it — and every
// refused point.
func TestModeLattice(t *testing.T) {
	cells, pairs, uncovered := latticePairwise()
	if uncovered > 0 {
		t.Fatalf("%d of the %d legal pairs of axis values are in no cell", uncovered, pairs)
	}
	if latticeFull {
		cells = cells[:0]
		next := 0
		for _, pt := range latticePoints() {
			for range latticeCorpus {
				if pt[0], next = next%len(latticeCorpus), next+1; pointCell(pt).legal() {
					cells = append(cells, pointCell(pt))
					break
				}
			}
		}
	}
	t.Logf("%d cells cover the %d legal pairs of axis values", len(cells), pairs)
	for _, p := range latticeTasks {
		if r, err := (cell{prog: p}).oracle().memo(); err != nil || r.collections == 0 {
			t.Errorf("%s: the task workload exerts no heap pressure (%v)", p.name, err)
		}
	}
	t.Run("refused", func(t *testing.T) {
		for _, pt := range latticePoints() {
			if pt[len(pt)-1] == 0 { // the quantum is not an option
				checkRefusals(t, pointCell(pt).opts)
			}
		}
	})
	for _, c := range cells {
		t.Run(c.name(), func(t *testing.T) {
			t.Parallel()
			checkCell(t, c)
		})
	}
}

// checkRefusals runs o on both paths of a trivial program, where a refusal is
// the only way to fail: a path the rules refuse fails with the first
// sentence of those it breaks. It returns the number of refusing paths.
func checkRefusals(t *testing.T, o Options) (n int) {
	t.Helper()
	for _, single := range []bool{false, true} {
		if want := o.violated(single); len(want) > 0 {
			n++
			var err error
			if single {
				_, err = Run("let main () = 7", o)
			} else {
				_, err = RunTasks("let task_a () = 7", []string{"task_a"}, o)
			}
			if err == nil || err.Error() != want[0] {
				t.Errorf("%+v (single-task %v): got %v, want %q", o, single, err, want[0])
			}
		}
	}
	return n
}

// Views: named slices of the lattice, each a mode's cells over a corpus, held
// to the one oracle by checkCell, so `go test -run TestDifferentialNursery`
// selects the nursery's. A view runs its modes on every program under every
// key (a strategy × discipline); in its name template {prog}, {strat} and
// {ms} stand for the two.

var (
	allKeys = []Options{{}, {MarkSweep: true}, {Strategy: gc.StratInterp}, {Strategy: gc.StratInterp, MarkSweep: true},
		{Strategy: gc.StratAppel}, {Strategy: gc.StratAppel, MarkSweep: true}, {Strategy: gc.StratTagged}}
	tagFreeKeys, compiledKeys = allKeys[:6], allKeys[:2]
)

func view(t *testing.T, progs []latticeProg, keys []Options, name string, modes ...func(*cell)) {
	for _, p := range progs {
		for _, k := range keys {
			t.Run(strings.NewReplacer("{prog}", p.name, "{strat}", k.Strategy.String(), "{ms}", fmt.Sprint(k.MarkSweep)).Replace(name), func(t *testing.T) {
				t.Parallel()
				for _, m := range modes {
					c := cell{prog: p, opts: k}
					m(&c)
					t.Run(strings.TrimPrefix(c.name(), p.name+"/"), func(t *testing.T) { checkCell(t, c) })
				}
			})
		}
	}
}

func viewCell(t *testing.T, name string, c cell) {
	t.Run(name, func(t *testing.T) {
		t.Parallel()
		checkCell(t, c)
	})
}

func TestDifferentialWorkloadsCrossStrategy(t *testing.T) {
	view(t, latticeSingles, allKeys, "{prog}/{strat}/ms={ms}", plain)
}
func TestDifferentialNurseryWorkloads(t *testing.T) {
	view(t, latticeSingles, tagFreeKeys, "{prog}/{strat}/ms={ms}", nursery, with(nursery, failEvery))
}
func TestDifferentialTLABWorkloads(t *testing.T) { // a single-task run is a group of one, with one buffer
	view(t, latticeSingles, allKeys, "{prog}/{strat}/ms={ms}", tlab)
}
func TestDifferentialTaskWorkloadsCrossStrategy(t *testing.T) {
	view(t, latticeTasks, allKeys, "{prog}/{strat}/ms={ms}", plain)
}
func TestDifferentialNurseryTasks(t *testing.T) {
	view(t, latticeTasks, compiledKeys, "{prog}/ms={ms}", nursery, with(nursery, atAllocs))
}
func TestDifferentialShardsTasks(t *testing.T) {
	view(t, latticeTasks, tagFreeKeys, "{prog}/{strat}/ms={ms}", with(nursery, shards),
		with(nursery, func(c *cell) { c.opts.Shards = 4 }))
}
func TestDifferentialTLABTasks(t *testing.T) {
	view(t, latticeTasks, compiledKeys, "{prog}/ms={ms}", tlab, with(tlab, nursery), with(tlab, quantum7))
}
func TestDifferentialTLABStrategies(t *testing.T) {
	view(t, latticeTasks[:1], []Options{allKeys[0], allKeys[2], allKeys[4], allKeys[6]}, "{strat}", tlab)
}
func TestDisableLivenessVerifiesCleanOnTasks(t *testing.T) { // frames zero-filled for widened maps
	view(t, latticeTasks, compiledKeys, "{prog}/ms={ms}", func(c *cell) { c.opts.DisableLiveness = true })
}

// TestTLABTortureCompletes: every allocation retires and re-carves a buffer.
// On mark/sweep the retired tails are gaps until a sweep merges them into
// holes — on taskmutate the heap faulted when reuse was exact-size only.
func TestTLABTortureCompletes(t *testing.T) {
	view(t, latticeTasks, compiledKeys, "{prog}/ms={ms}", with(tlab, torture))
}

// tortureTaskSrc is a scaled-down churn/tree/poly mix: every allocating
// opcode as a collection point, cheap enough to collect before each.
const tortureTaskSrc = `
type tree = Leaf | Node of tree * int * tree
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec build n = if n = 0 then Leaf else Node (build (n - 1), n, build (n - 1))
let rec tsum t = match t with | Leaf -> 0 | Node (l, v, r) -> tsum l + v + tsum r
let churn () = sum (map (fun v -> v * 2) (upto 12)) + sum (upto 9)
let trees () = tsum (build 4) + tsum (build 3)
let boxes () = (let r = ref 5 in (r := !r + sum (upto 6); !r))
let main () = churn () + trees () + boxes ()
`

func TestTortureDifferentialTasking(t *testing.T) {
	p := latticeProg{"torture-tasks", tortureTaskSrc, []string{"churn", "trees", "boxes"}, nil, 1024}
	view(t, []latticeProg{p}, allKeys, "{strat}/ms={ms}", torture, with(torture, tlab))
}
func TestTortureDifferentialSingle(t *testing.T) {
	view(t, []latticeProg{{name: "torture-main", src: tortureTaskSrc, heap: 1024}}, allKeys, "{strat}/ms={ms}", torture)
}

// A knob's off state is any cell without it; these views are plain cells,
// held to the engagement table's off side.
func TestTLABDisabledLeavesTelemetryClean(t *testing.T) {
	view(t, latticeTasks[:1], allKeys[:1], "{prog}", plain)
}
func TestNurseryDisabledIsIdentical(t *testing.T) {
	view(t, latticeSingles[2:3], allKeys[:1], "{prog}", plain) // listchurn
}
func TestShardRecordsAbsentUnsharded(t *testing.T) {
	view(t, latticeTasks[:1], allKeys[:1], "{prog}", nursery)
}

// refused requires every one of opts to be refused on some run path.
func refused(t *testing.T, opts ...Options) {
	for _, o := range opts {
		if checkRefusals(t, o) == 0 {
			t.Errorf("%+v: no rule refuses it", o)
		}
	}
}

func TestShardGating(t *testing.T) {
	refused(t, Options{Strategy: gc.StratTagged, Shards: 2}, Options{Shards: 2},
		Options{NurseryWords: 256, Shards: 2}) // the single-task path alone refuses the last
}
func TestNurseryRejectsTagged(t *testing.T) {
	refused(t, Options{Strategy: gc.StratTagged, NurseryWords: 256})
}

// The interleaving fuzzers are seeded cells off the lattice's grid: other
// quanta, chunk sizes and shard assignments.
func TestTLABTaskInterleavingFuzz(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := cell{prog: latticeTasks[0], opts: Options{MarkSweep: rng.Intn(2) == 0}}
		if rng.Intn(2) == 0 {
			nursery(&c)
		}
		c.opts.TLABWords, c.quantum = []int{16, 32, 64, 96}[rng.Intn(4)], 1+rng.Intn(23)
		name := fmt.Sprintf("seed=%d/ms=%v/nursery=%v/chunk=%d/q=%d",
			seed, c.opts.MarkSweep, c.opts.NurseryWords > 0, c.opts.TLABWords, c.quantum)
		c.opts.SuspendAtAllocs = rng.Intn(2) == 0
		viewCell(t, name, c)
	}
}

func TestShardAssignInterleavingFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		c := cell{prog: latticeTasks[0], opts: Options{NurseryWords: 256, Shards: 3}}
		for range c.prog.entries {
			c.opts.ShardAssign = append(c.opts.ShardAssign, rng.Intn(3))
		}
		viewCell(t, c.name(), c)
	}
}

package pipeline

import (
	"errors"
	"flag"
	"fmt"
	"reflect"
	"strconv"

	"tagfree/internal/gc"
)

// The mode table. Every knob a front end can set — its CLI spelling, the
// range an outside value must lie in, the words a diagnostic uses for it and
// the field it lands in — is one row of Knobs, and every combination of
// knobs no runtime is built for is one row of Rules. The flag sets of tfgc,
// tfserve and tfbench (BindFlags), the skip rows of tfbench telemetry,
// Options.validate and README's "Modes and flags" table are all read off
// these two lists; nothing else in the tree spells a knob, a range or a
// refusal.
//
// Ranges guard outside input only: Knob.Set applies them where a value
// crosses into the program (a flag). Options built in Go —
// tests run 4-word heaps on purpose — pass through validate alone, which
// refuses the violated Rules and negative sizes and counts.

// Kind is the type of value a knob takes.
type Kind int

// The knob kinds. Int covers int and int64 fields alike; Float is heap-grow's
// factor, whose range is open below; Strategy takes a gc.Strategy name.
const (
	Bool Kind = iota
	Int
	Float
	Strategy
)

// Knob is one row of the mode table.
type Knob struct {
	// Flag is the CLI spelling (without the dash).
	Flag string
	Kind Kind
	// Min..Max is the accepted range of an Int (Max 0 = no upper bound) and
	// the range (Min, Max] of a Float. A non-empty Zero additionally accepts
	// 0 and says what it means ("to disable"). A knob that is never given
	// keeps its field's zero value, which every runtime reads as off or
	// "the default" — so an explicit 0 is accepted only where Zero says so.
	Min, Max int64
	Zero     string
	// Noun and Unit are how a diagnostic names the value: "heap size 64
	// words out of range (128..67108864)".
	Noun, Unit string
	Help       string
	// Field is the Options field the knob sets — or, for a Serve row, the
	// serve.Config field (the arrival plan lives a package above this one,
	// so its rows name their fields without importing them).
	Field string
	Serve bool
}

const (
	maxHeapWords = 1 << 26
	maxSteps     = 1 << 30 // periods and backoffs: virtual time, the bound only catches typos
	maxBudget    = 1 << 40 // budgets and deadlines: billions of steps is a legitimate "effectively off"
)

// Knobs is the mode table, in the order the README lists flags. A heap
// below 128 words cannot hold the init globals of the smallest corpus
// program; the upper bounds keep a typo from allocating gigawords.
var Knobs = []Knob{
	{Flag: "gc", Kind: Strategy, Field: "Strategy",
		Help: "collector: compiled, interp, appel, tagged"},
	{Flag: "marksweep", Kind: Bool, Field: "MarkSweep",
		Help: "mark/sweep heap discipline instead of semispace copying"},
	{Flag: "shards", Kind: Int, Min: 1, Max: 64, Noun: "shards", Field: "Shards",
		Help: "partition tasks and nursery into N heap shards with independent minor collections"},
	{Flag: "heap", Kind: Int, Min: 128, Max: maxHeapWords, Noun: "heap size", Unit: "words", Field: "HeapWords",
		Help: "semispace size in words (default 65536, or the workload's recommendation)"},
	{Flag: "gc-nursery", Kind: Int, Min: 16, Max: 1 << 22, Zero: "to disable", Noun: "nursery size", Unit: "words", Field: "NurseryWords",
		Help: "generational nursery: 2×N words per shard, all allocation space"},
	{Flag: "tlab", Kind: Int, Min: 8, Max: 1 << 16, Zero: "to disable", Noun: "tlab size", Unit: "words", Field: "TLABWords",
		Help: "per-task allocation buffer chunk in words"},
	{Flag: "no-elide", Kind: Bool, Field: "DisableGCWordElision",
		Help: "keep gc_words on every call site"},

	{Flag: "gc-torture", Kind: Bool, Field: "Torture",
		Help: "collect before every allocation"},
	{Flag: "verify-heap", Kind: Bool, Field: "VerifyHeap",
		Help: "verify heap invariants after every collection and hold root resolution to the paper's recursive resolver"},
	{Flag: "fail-alloc", Kind: Int, Min: 1, Noun: "fail-alloc", Field: "FailAllocNth",
		Help: "inject one allocation failure at the Nth allocation"},
	{Flag: "fail-every", Kind: Int, Min: 1, Noun: "fail-every", Field: "FailAllocEvery",
		Help: "inject an allocation failure every Kth allocation"},
	{Flag: "fail-refills", Kind: Bool, Field: "FailRefillsOnly",
		Help: "restrict -fail-alloc/-fail-every to TLAB refill carves"},
	{Flag: "heap-grow", Kind: Float, Min: 1, Max: 16, Noun: "heap-grow", Field: "GrowFactor",
		Help: "heap growth factor when collection cannot satisfy an allocation"},
	{Flag: "heap-max", Kind: Int, Min: 128, Max: maxHeapWords, Zero: "for unbounded", Noun: "heap-max", Unit: "words", Field: "MaxHeapWords",
		Help: "hard ceiling for heap growth in semispace words"},

	{Flag: "period", Kind: Int, Min: 1, Max: maxSteps, Noun: "period", Serve: true, Field: "Period",
		Help: "inter-arrival period in steps (not given = closed-loop corpus run)"},
	{Flag: "burst", Kind: Int, Min: 1, Max: 1 << 10, Noun: "burst", Serve: true, Field: "Burst",
		Help: "requests arriving together each period"},
	{Flag: "requests", Kind: Int, Min: 1, Max: 1 << 20, Noun: "requests", Serve: true, Field: "Requests",
		Help: "total requests to issue (open loop)"},
	{Flag: "seed", Kind: Int, Min: 0, Noun: "seed", Serve: true, Field: "Seed",
		Help: "PRNG seed for mix sampling and retry jitter"},
	{Flag: "queue", Kind: Int, Min: 1, Max: 1 << 16, Noun: "queue depth", Serve: true, Field: "QueueDepth",
		Help: "admission queue depth (default 16)"},
	{Flag: "inflight", Kind: Int, Min: 1, Max: 1 << 10, Noun: "inflight", Serve: true, Field: "MaxInflight",
		Help: "max concurrently running requests (default 8)"},
	{Flag: "shed-heap", Kind: Int, Min: 1, Max: 100, Noun: "shed-heap", Unit: "percent", Serve: true, Field: "ShedHeapPct",
		Help: "shed arrivals at this heap occupancy percentage"},
	{Flag: "retries", Kind: Int, Min: 0, Max: 64, Noun: "retries", Serve: true, Field: "MaxRetries",
		Help: "max client retries after a shed"},
	{Flag: "backoff", Kind: Int, Min: 1, Max: maxSteps, Noun: "backoff", Serve: true, Field: "Backoff",
		Help: "initial retry backoff in steps (default: the period)"},
	{Flag: "backoff-cap", Kind: Int, Min: 1, Max: maxSteps, Noun: "backoff-cap", Serve: true, Field: "BackoffCap",
		Help: "retry backoff ceiling in steps (default 64x backoff)"},
	{Flag: "deadline", Kind: Int, Min: 1, Max: maxBudget, Noun: "deadline", Serve: true, Field: "Deadline",
		Help: "cancel admitted requests running longer than this many steps"},
	{Flag: "budget-steps", Kind: Int, Min: 1, Max: maxBudget, Noun: "budget-steps", Field: "BudgetSteps",
		Help: "per-task step budget; exceeding it faults the task"},
	{Flag: "budget-alloc", Kind: Int, Min: 1, Max: maxBudget, Noun: "budget-alloc", Field: "BudgetAllocWords",
		Help: "per-task allocation-word budget"},
}

// Range renders the accepted range the way diagnostics and the README print
// it; empty for kinds that have none.
func (k *Knob) Range() string {
	switch {
	case k.Kind == Float:
		return fmt.Sprintf("must exceed %d, at most %d", k.Min, k.Max)
	case k.Kind != Int:
		return ""
	case k.Max == 0 && k.Min == 0:
		return "must not be negative"
	case k.Max == 0:
		return fmt.Sprintf("must be at least %d", k.Min)
	}
	r := fmt.Sprintf("%d..%d", k.Min, k.Max)
	if k.Zero != "" {
		r = fmt.Sprintf("0 %s, or %s", k.Zero, r)
	}
	return r
}

// outOfRange is the one range sentence; the flag package prints it after its
// "invalid value" preamble.
func (k *Knob) outOfRange(value string) error {
	if k.Unit != "" {
		value += " " + k.Unit
	}
	return fmt.Errorf("%s %s out of range (%s)", k.Noun, value, k.Range())
}

// Set parses text as the knob's kind, checks it against the range and stores
// it in the knob's field of target — a *Options, or the *serve.Config for a
// Serve row.
func (k *Knob) Set(target any, text string) error {
	f := reflect.ValueOf(target).Elem().FieldByName(k.Field)
	switch k.Kind {
	case Bool:
		b, err := strconv.ParseBool(text)
		if err != nil {
			return fmt.Errorf("malformed boolean %q", text)
		}
		f.SetBool(b)
	case Strategy:
		s, err := gc.ParseStrategy(text)
		if err != nil {
			return err
		}
		f.SetInt(int64(s))
	case Float:
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return fmt.Errorf("malformed %s value %q", k.Noun, text)
		}
		if !(v > float64(k.Min) && v <= float64(k.Max)) {
			return k.outOfRange(text)
		}
		f.SetFloat(v)
	case Int:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return fmt.Errorf("malformed %s value %q", k.Noun, text)
		}
		if (n < k.Min || k.Max != 0 && n > k.Max) && !(n == 0 && k.Zero != "") {
			return k.outOfRange(strconv.FormatInt(n, 10))
		}
		f.SetInt(n)
	}
	return nil
}

// targetOf picks, among a front end's targets, the struct a knob's field
// lives in: the *Options for an Options row, the other one for a Serve row.
func (k *Knob) targetOf(targets []any) any {
	for _, t := range targets {
		if _, isOpts := t.(*Options); isOpts != k.Serve {
			return t
		}
	}
	return nil
}

// flagValue adapts one knob and its target to flag.Value, so a flag is
// range-checked as it is set and a bad value is the flag package's usage
// error carrying the knob's sentence.
type flagValue struct {
	k      *Knob
	target any
}

func (v flagValue) Set(text string) error { return v.k.Set(v.target, text) }
func (v flagValue) IsBoolFlag() bool      { return v.k.Kind == Bool }
func (v flagValue) String() string {
	if v.k == nil { // the flag package probes a zero Value for the default
		return ""
	}
	return fmt.Sprint(reflect.ValueOf(v.target).Elem().FieldByName(v.k.Field).Interface())
}

// BindFlags registers the flag of every knob whose field lives in one of
// targets: a *Options (tfgc, tfbench), or a *Options and the *serve.Config
// around it (tfserve). What the targets hold when bound is the default.
func BindFlags(fs *flag.FlagSet, targets ...any) {
	for i := range Knobs {
		k := &Knobs[i]
		if t := k.targetOf(targets); t != nil {
			fs.Var(flagValue{k, t}, k.Flag, k.Help)
		}
	}
}

// RefuseNegative is the range check that holds for Go callers too: no
// numeric knob of target (a *Options or a *serve.Config) may be negative —
// a negative size reaches make(), a negative bound never admits anything.
func RefuseNegative(target any) error {
	_, isOpts := target.(*Options)
	for i := range Knobs {
		k := &Knobs[i]
		if isOpts == k.Serve {
			continue
		}
		f := reflect.ValueOf(target).Elem().FieldByName(k.Field)
		if k.Kind == Int && f.Int() < 0 || k.Kind == Float && f.Float() < 0 {
			return fmt.Errorf("%s must not be negative (got %v)", k.Noun, f.Interface())
		}
	}
	return nil
}

// CheckSizes is the one range that spans two knobs: an allocation buffer
// must be smaller than the space it is carved from. Like the per-knob
// ranges it guards outside input, so the front ends call it once their
// sizes are resolved.
func (o Options) CheckSizes() error {
	if heap := o.heapWords(); o.TLABWords >= heap {
		return fmt.Errorf("tlab size %d words must be smaller than the heap (%d words)", o.TLABWords, heap)
	}
	if o.NurseryWords > 0 && o.TLABWords >= o.NurseryWords {
		return fmt.Errorf("tlab size %d words must be smaller than the nursery (%d words)", o.TLABWords, o.NurseryWords)
	}
	return nil
}

// Rule is one row of the compatibility table: a combination of knobs no
// runtime is built for.
type Rule struct {
	// Flag names the mode the rule constrains (the README lists the
	// sentence on that knob's row); Sentence is the one wording every front
	// end prints.
	Flag, Sentence string
	// Violated reports whether o breaks the rule; single says the run is a
	// group of one (Run, Eval) rather than a tasking run.
	Violated func(o Options, single bool) bool
}

// Rules is the compatibility table, in the order reasons are reported.
//
// Mark/sweep, the nursery and everything layered on them need a tag-free
// strategy: young objects are headerless and their evacuation, like the
// mark phase, is type-directed. Per-shard minor collection is the nursery's
// machinery partitioned by task group, so it needs the nursery and more than
// one mutator to overlap with.
var Rules = []Rule{
	{"marksweep", "mark/sweep is implemented for the tag-free strategies",
		func(o Options, _ bool) bool { return o.MarkSweep && o.tagged() }},
	{"gc-nursery", "the generational nursery requires a tag-free strategy",
		func(o Options, _ bool) bool { return o.NurseryWords > 0 && o.tagged() }},
	{"shards", "heap sharding requires a tag-free strategy",
		func(o Options, _ bool) bool { return o.Shards > 1 && o.tagged() }},
	{"shards", "heap sharding requires a nursery (per-shard minor collections)",
		func(o Options, _ bool) bool { return o.Shards > 1 && o.NurseryWords <= 0 }},
	{"shards", "heap sharding requires the tasking runtime (a single-task run has one mutator and nothing to overlap)",
		func(o Options, single bool) bool { return o.Shards > 1 && single }},
}

func (o Options) tagged() bool { return o.Strategy == gc.StratTagged }

// violated lists the sentences of the broken rules.
func (o Options) violated(single bool) []string {
	var out []string
	for _, r := range Rules {
		if r.Violated(o, single) {
			out = append(out, r.Sentence)
		}
	}
	return out
}

// Refusals returns the sentence of every rule that refuses o as a tasking
// run (nil = RunTasks will build it).
func (o Options) Refusals() []string { return o.violated(false) }

// validate refuses what no runtime is built for: a negative size or count,
// then the first refusing rule. Every run passes through it (newGroup).
func (o Options) validate(single bool) error {
	if err := RefuseNegative(&o); err != nil {
		return err
	}
	if r := o.violated(single); len(r) > 0 {
		return errors.New(r[0])
	}
	return nil
}

package pipeline

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/heap"
	"tagfree/internal/mlang/types"
)

// EvalResult is the outcome of Eval: the program's main value rendered as
// MinML syntax, with its inferred type.
type EvalResult struct {
	Value  string
	Type   string
	Result *Result
}

// Eval compiles and runs a program, rendering main's result by walking the
// simulated heap with main's inferred result type — the same type-driven
// traversal the collector performs, reused for printing.
func Eval(src string, opts Options) (*EvalResult, error) {
	irp, info, err := Frontend(src)
	if err != nil {
		return nil, err
	}
	mainScheme, ok := info.TopScheme["main"]
	if !ok {
		return nil, fmt.Errorf("program has no main function")
	}
	arrow, ok := types.Resolve(mainScheme.Body).(*types.Arrow)
	if !ok {
		return nil, fmt.Errorf("main is not a function")
	}
	retType := arrow.Cod

	prog, _, err := compileIR(irp, opts)
	if err != nil {
		return nil, err
	}
	g, raw, err := runMain(prog, opts)
	if err != nil {
		return nil, err
	}
	r := &renderer{heap: g.Heap, strings: prog.Strings, repr: prog.Repr}
	return &EvalResult{
		Value:  r.render(raw, retType, 0),
		Type:   types.TypeString(retType),
		Result: singleResult(g, raw),
	}, nil
}

// TelemetryOptions configures the telemetry emitters.
type TelemetryOptions struct {
	// OmitTiming zeroes every pause field (per-record PauseNS and the
	// cumulative pause histogram) so the output depends only on the
	// program, strategy and heap discipline — deterministic across runs
	// and machines, which the golden tests rely on.
	OmitTiming bool
	// Tasks includes the per-task scan breakdown in the table output.
	Tasks bool
}

// sanitized returns a copy of t with timing stripped per opt.
func sanitizedTelemetry(t *gc.Telemetry, opt TelemetryOptions) *gc.Telemetry {
	if !opt.OmitTiming {
		return t
	}
	cp := *t
	cp.Records = append([]gc.CollectionRecord(nil), t.Records...)
	for i := range cp.Records {
		cp.Records[i].PauseNS = 0
	}
	cp.PauseHist = [gc.PauseBuckets]int64{}
	return &cp
}

// TelemetryTable renders a collector's telemetry as an aligned text table:
// one row per collection, followed by the cumulative pause and survivor
// histograms (non-empty buckets only).
func TelemetryTable(t *gc.Telemetry, opt TelemetryOptions) string {
	t = sanitizedTelemetry(t, opt)
	var b strings.Builder
	fmt.Fprintf(&b, "gc telemetry: strategy=%s kind=%s collections=%d\n",
		t.Strategy, t.Kind, len(t.Records))
	if len(t.Records) == 0 {
		return b.String()
	}
	if !opt.OmitTiming {
		fmt.Fprintf(&b, "total pause: %s\n", time.Duration(t.TotalPauseNS()))
	}

	// Generational columns appear only when some record carries a kind, so
	// non-nursery output (and its goldens) is unchanged. TLAB columns
	// follow the same convention, keyed on a record carrying a TLAB block.
	gen := false
	tlab := false
	sharded := false
	for _, r := range t.Records {
		if r.Kind != "" {
			gen = true
		}
		if r.TLAB != nil {
			tlab = true
		}
		if r.Shard > 0 {
			sharded = true
		}
	}
	header := []string{"seq"}
	if gen {
		header = append(header, "kind")
	}
	if sharded {
		header = append(header, "shard")
	}
	if !opt.OmitTiming {
		header = append(header, "pause")
	}
	header = append(header, "before", "live", "surv%", "words", "frames", "slots", "flhit%")
	if gen {
		header = append(header, "prom", "rem", "barrier")
	}
	if tlab {
		header = append(header, "refills", "fast", "shared", "waste")
	}
	rows := make([][]string, 0, len(t.Records))
	for _, r := range t.Records {
		hit := "-"
		if r.FreeListHitPct >= 0 {
			hit = fmt.Sprintf("%.1f", r.FreeListHitPct)
		}
		row := []string{fmt.Sprint(r.Seq)}
		if gen {
			kind := r.Kind
			if kind == "" {
				kind = "-"
			}
			row = append(row, kind)
		}
		if sharded {
			// Global collections (majors, multi-shard minors) have no shard.
			shard := "-"
			if r.Shard > 0 {
				shard = fmt.Sprint(r.Shard)
			}
			row = append(row, shard)
		}
		if !opt.OmitTiming {
			row = append(row, time.Duration(r.PauseNS).String())
		}
		row = append(row,
			fmt.Sprint(r.UsedBefore),
			fmt.Sprint(r.LiveWords),
			fmt.Sprintf("%.1f", r.SurvivorPct),
			fmt.Sprint(r.WordsVisited),
			fmt.Sprint(r.FramesTraced),
			fmt.Sprint(r.SlotsTraced),
			hit,
		)
		if gen {
			row = append(row,
				fmt.Sprint(r.PromotedWords),
				fmt.Sprint(r.Remembered),
				fmt.Sprint(r.BarrierHits),
			)
		}
		if tlab {
			tr := r.TLAB
			if tr == nil {
				tr = &gc.TLABRecord{}
			}
			row = append(row,
				fmt.Sprint(tr.Refills),
				fmt.Sprint(tr.FastAllocs),
				fmt.Sprint(tr.SharedAllocs),
				fmt.Sprint(tr.WasteWords),
			)
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, r := range rows {
		line(r)
	}

	if opt.Tasks {
		for _, r := range t.Records {
			for _, ts := range r.Tasks {
				fmt.Fprintf(&b, "  gc %d task %d: frames=%d slots=%d objects=%d words=%d\n",
					r.Seq, ts.Task, ts.Frames, ts.Slots, ts.Objects, ts.Words)
			}
		}
	}

	if !opt.OmitTiming {
		b.WriteString("pause histogram:")
		for i, n := range t.PauseHist {
			if n > 0 {
				fmt.Fprintf(&b, " %s=%d", gc.PauseBucketLabel(i), n)
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("survivor histogram:")
	for i, n := range t.SurvivorHist {
		if n > 0 {
			fmt.Fprintf(&b, " %s=%d", gc.SurvivorBucketLabel(i), n)
		}
	}
	b.WriteByte('\n')
	var planHits, planMisses, siteHits, kernelWords int64
	for _, r := range t.Records {
		planHits += r.PlanHits
		planMisses += r.PlanMisses
		siteHits += r.SiteCacheHits
		kernelWords += r.KernelWords
	}
	if planHits+planMisses+siteHits+kernelWords > 0 {
		fmt.Fprintf(&b, "fast path: plan-hits=%d plan-misses=%d site-cache-hits=%d kernel-words=%d\n",
			planHits, planMisses, siteHits, kernelWords)
	}
	if tlab || t.TLABTotal != nil {
		// Prefer the finalized whole-run total: per-record deltas stop at
		// the last collection and miss the mutator tail after it.
		var cum gc.TLABRecord
		if t.TLABTotal != nil {
			cum = *t.TLABTotal
		} else {
			for _, r := range t.Records {
				if r.TLAB == nil {
					continue
				}
				cum.Refills += r.TLAB.Refills
				cum.RefillWords += r.TLAB.RefillWords
				cum.FastAllocs += r.TLAB.FastAllocs
				cum.SharedAllocs += r.TLAB.SharedAllocs
				cum.WasteWords += r.TLAB.WasteWords
				cum.ReturnedWords += r.TLAB.ReturnedWords
			}
		}
		ratio := 0.0
		if cum.FastAllocs+cum.SharedAllocs > 0 {
			ratio = float64(cum.SharedAllocs) / float64(cum.FastAllocs+cum.SharedAllocs)
		}
		fmt.Fprintf(&b, "tlab: refills=%d refill-words=%d fast-allocs=%d shared-allocs=%d waste-words=%d returned-words=%d shared-ratio=%.3f\n",
			cum.Refills, cum.RefillWords, cum.FastAllocs, cum.SharedAllocs,
			cum.WasteWords, cum.ReturnedWords, ratio)
	}
	if rs := t.Resilience; rs != (gc.ResilienceStats{}) {
		fmt.Fprintf(&b, "resilience: injected-ooms=%d torture-collections=%d emergency-collections=%d ladder-recovered=%d ladder-exhausted=%d heap-growths=%d task-faults=%d budget-faults=%d\n",
			rs.InjectedOOMs, rs.TortureCollections, rs.EmergencyCollections,
			rs.LadderRecovered, rs.LadderExhausted,
			rs.HeapGrowths,
			rs.TaskFaults, rs.BudgetFaults)
	}
	return b.String()
}

// TelemetryJSON marshals a collector's telemetry as indented JSON.
func TelemetryJSON(t *gc.Telemetry, opt TelemetryOptions) ([]byte, error) {
	return json.MarshalIndent(sanitizedTelemetry(t, opt), "", "  ")
}

// renderer walks heap values by type.
type renderer struct {
	heap    *heap.Heap
	strings []string
	repr    code.Repr
}

const maxRenderDepth = 12

func (r *renderer) render(w code.Word, t types.Type, depth int) string {
	if depth > maxRenderDepth {
		return "..."
	}
	switch t := types.Resolve(t).(type) {
	case *types.Base:
		switch t.Kind {
		case types.IntK:
			return fmt.Sprint(code.DecodeInt(r.repr, w))
		case types.BoolK:
			return fmt.Sprint(code.DecodeBool(r.repr, w))
		case types.UnitK:
			return "()"
		case types.StringK:
			return fmt.Sprintf("%q", r.strings[code.DecodeInt(r.repr, w)])
		}
	case *types.Var:
		return "<poly>"
	case *types.Arrow:
		return "<fun>"
	case *types.TupleT:
		parts := make([]string, len(t.Elems))
		for i, et := range t.Elems {
			parts[i] = r.render(r.heap.Field(w, i), et, depth+1)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case *types.Con:
		if t.Name == "ref" {
			return "ref (" + r.render(r.heap.Field(w, 0), t.Args[0], depth+1) + ")"
		}
		if t.Name == "list" {
			return r.renderList(w, t.Args[0], depth)
		}
		return r.renderData(w, t, depth)
	}
	return "?"
}

func (r *renderer) renderList(w code.Word, elem types.Type, depth int) string {
	var parts []string
	for code.IsBoxedValue(r.repr, w) {
		if len(parts) >= 20 {
			parts = append(parts, "...")
			break
		}
		parts = append(parts, r.render(r.heap.Field(w, 0), elem, depth+1))
		w = r.heap.Field(w, 1)
	}
	return "[" + strings.Join(parts, "; ") + "]"
}

func (r *renderer) renderData(w code.Word, t *types.Con, depth int) string {
	data := t.Data
	if data == nil {
		return "?"
	}
	if !code.IsBoxedValue(r.repr, w) {
		tag := int(code.DecodeInt(r.repr, w))
		for _, ci := range data.Ctors {
			if ci.IsNullary() && ci.Tag == tag {
				return ci.Name
			}
		}
		return fmt.Sprintf("<ctor %d>", tag)
	}
	// Boxed: find the constructor via the discriminant (or the sole boxed
	// constructor for tagless sums).
	off := 0
	var ctor *types.CtorInfo
	if data.BoxedCtors > 1 {
		tag := int(code.DecodeInt(r.repr, r.heap.Field(w, 0)))
		off = 1
		for _, ci := range data.Ctors {
			if !ci.IsNullary() && ci.Tag == tag {
				ctor = ci
				break
			}
		}
	} else {
		for _, ci := range data.Ctors {
			if !ci.IsNullary() {
				ctor = ci
				break
			}
		}
	}
	if ctor == nil {
		return "<box>"
	}
	fieldTypes := ctor.Instantiate(t.Args)
	parts := make([]string, len(fieldTypes))
	for i, ft := range fieldTypes {
		parts[i] = r.render(r.heap.Field(w, off+i), ft, depth+1)
	}
	if len(parts) == 0 {
		return ctor.Name
	}
	return ctor.Name + " (" + strings.Join(parts, ", ") + ")"
}

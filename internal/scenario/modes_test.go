package scenario

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/serve"
	"tagfree/internal/workloads"
)

// tfsWith wraps `key value` in the smallest scenario that reaches the key's
// range check.
func tfsWith(k pipeline.Knob, value string) string {
	stmt := k.Key + " " + value
	switch k.Block {
	case "faults":
		stmt = "faults {\n" + stmt + "\n}"
	case "arrivals":
		required := ""
		for _, r := range []string{"period", "requests"} {
			if r != k.Key {
				required += r + " 100\n"
			}
		}
		stmt = "arrivals {\n" + required + stmt + "\n}"
	}
	return "scenario x {\nworkload taskserve\n" + stmt + "\n}\n"
}

// TestScenarioFrontEndsAgree: for every knob that has both spellings, at the
// edges of its range, the flag binder and the .tfs parser accept and reject
// the same values, and where both reject a number they print one sentence —
// the DSL after its line:col, the flag package after its preamble.
func TestScenarioFrontEndsAgree(t *testing.T) {
	for _, k := range pipeline.Knobs {
		if k.Key == "" || k.Kind != pipeline.Int && k.Kind != pipeline.Float {
			continue
		}
		values := []string{"0", "-1", fmt.Sprint(k.Min - 1), fmt.Sprint(k.Min), fmt.Sprint(k.Min + 1)}
		if k.Max != 0 {
			values = append(values, fmt.Sprint(k.Max-1), fmt.Sprint(k.Max), fmt.Sprint(k.Max+1))
		}
		if k.Kind == pipeline.Float {
			values = append(values, "1.0", "1.5", "16.0", "16.5")
		}
		for _, v := range values {
			fs := flag.NewFlagSet("x", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			pipeline.BindFlags(fs, &pipeline.Options{}, &serve.Config{})
			flagErr := fs.Parse([]string{"-" + k.Flag, v})
			_, tfsErr := Parse(tfsWith(k, v))
			if (flagErr == nil) != (tfsErr == nil) {
				t.Errorf("%s %s: flag says %v, .tfs says %v", k.Flag, v, flagErr, tfsErr)
				continue
			}
			if tfsErr == nil || strings.HasPrefix(v, "-") {
				continue // a minus sign is a lexical error in .tfs: rejected, worded by the lexer
			}
			_, sentence, _ := strings.Cut(tfsErr.Error(), ": ")
			if !strings.Contains(sentence, "out of range") || !strings.HasSuffix(flagErr.Error(), ": "+sentence) {
				t.Errorf("%s %s: sentences differ\n flag: %v\n .tfs: %v", k.Flag, v, flagErr, tfsErr)
			}
		}
	}
}

// TestScenarioRulesAgree runs the whole lattice of modes the rule table
// speaks about — strategy × discipline × par × nursery × tlab × concurrent ×
// shards × heap-liveness, 512 combinations — and holds the three readers of
// pipeline.Rules to each other: a compiled cell's skip reasons are exactly
// Refusals() then Degrades() of its configuration; a refused configuration
// is refused by pipeline.RunTasks with the first of those sentences; and
// every configuration not refused — degraded ones included, the way the CLIs
// run them — runs taskchurn to its expected values.
func TestScenarioRulesAgree(t *testing.T) {
	w, _ := workloads.TaskByName("taskchurn")
	onOff := []bool{false, true}
	ran, refused := 0, 0
	for _, nursery := range []int{0, 256} {
		for _, tlab := range []int{0, 64} {
			for _, conc := range onOff {
				for _, live := range onOff {
					src := fmt.Sprintf("scenario m {\nworkload taskchurn\nstrategies compiled interp appel tagged\n"+
						"disciplines copying marksweep\npar 1 2\nshards 1 2\nnursery %d\ntlab %d\n", nursery, tlab)
					if conc {
						src += "gc_concurrent\n"
					}
					if live {
						src += "gc_heap_liveness\n"
					}
					scs, err := Parse(src + "}\n")
					if err != nil {
						t.Fatal(err)
					}
					cells, err := Compile(scs)
					if err != nil {
						t.Fatal(err)
					}
					if len(cells) != 32 {
						t.Fatalf("got %d cells, want 32", len(cells))
					}
					for _, c := range cells {
						full := pipeline.Options{
							Strategy: c.Strategy, HeapWords: w.HeapWords, MarkSweep: c.Discipline == MarkSweep,
							Parallelism: c.Par, NurseryWords: nursery, TLABWords: tlab,
							GCConcurrent: conc, GCHeapLiveness: live, PoisonPruned: live,
						}
						if c.Shards > 1 {
							full.Shards = c.Shards
						}
						refusals, degrades := full.Refusals(), full.Degrades()
						if want := strings.Join(append(refusals, degrades...), "; "); c.Skip != want {
							t.Errorf("%s: skip %q, rules say %q", c.Name, c.Skip, want)
						}
						if c.Skip == "" && !reflect.DeepEqual(c.Opts, full) {
							t.Errorf("%s: compiled %+v, want %+v", c.Name, c.Opts, full)
						}
						res, err := pipeline.RunTasks(w.Source, w.Entries, full)
						if len(refusals) > 0 {
							refused++
							if err == nil || err.Error() != refusals[0] {
								t.Errorf("%s: RunTasks says %v, rules refuse with %q", c.Name, err, refusals[0])
							}
							continue
						}
						ran++
						if err != nil {
							t.Errorf("%s: no rule refuses it, RunTasks does: %v", c.Name, err)
							continue
						}
						if !reflect.DeepEqual(res.Values, w.Expect) {
							t.Errorf("%s: values %v, want %v", c.Name, res.Values, w.Expect)
						}
						// (A concurrent cycle counts its drop as degraded-concurrent
						// before the strategy is looked at; any counter will do.)
						if lv := res.Liveness; len(degrades) > 0 && res.GCStats.Collections > 0 &&
							(lv.PruneCollections != 0 || lv == gc.LivenessStats{}) {
							t.Errorf("%s: degraded (%v) but the drop was not counted: %+v", c.Name, degrades, lv)
						}
					}
				}
			}
		}
	}
	if ran+refused != 512 || ran < 64 || refused < 64 {
		t.Errorf("lattice: %d ran, %d refused, want 512 in all and both sides populated", ran, refused)
	}
	// The single-task rule is the one a scenario cannot reach: Run refuses
	// shards with the table's sentence, RunTasks does not.
	_, err := pipeline.Run(`let main () = 7`, pipeline.Options{NurseryWords: 256, Shards: 2})
	if err == nil || !strings.Contains(err.Error(), "requires the tasking runtime") {
		t.Errorf("Run with shards: got %v, want the single-task refusal", err)
	}
	if tagged := (pipeline.Options{Strategy: gc.StratTagged, MarkSweep: true}).Refusals(); len(tagged) != 1 {
		t.Errorf("tagged mark/sweep: refusals %q, want exactly one", tagged)
	}
}

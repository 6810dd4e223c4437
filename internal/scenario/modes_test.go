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

// TestScenarioRulesAgree compiles the lattice of modes the rule table speaks
// about — strategy × discipline × nursery × tlab × shards, 64 combinations —
// and holds the scenario compiler to pipeline.Rules: a cell's skip reasons
// are exactly Refusals() of its configuration, and a cell it runs carries
// exactly that configuration. (That the runtime refuses with the same
// sentences is pipeline's TestModeLattice.)
func TestScenarioRulesAgree(t *testing.T) {
	w, _ := workloads.TaskByName("taskchurn")
	skipped := 0
	for _, nursery := range []int{0, 256} {
		for _, tlab := range []int{0, 64} {
			src := fmt.Sprintf("scenario m {\nworkload taskchurn\nstrategies compiled interp appel tagged\n"+
				"disciplines copying marksweep\nshards 1 2\nnursery %d\ntlab %d\n", nursery, tlab)
			scs, err := Parse(src + "}\n")
			if err != nil {
				t.Fatal(err)
			}
			cells, err := Compile(scs)
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != 16 {
				t.Fatalf("got %d cells, want 16", len(cells))
			}
			for _, c := range cells {
				full := pipeline.Options{
					Strategy: c.Strategy, HeapWords: w.HeapWords, MarkSweep: c.Discipline == MarkSweep,
					NurseryWords: nursery, TLABWords: tlab,
				}
				if c.Shards > 1 {
					full.Shards = c.Shards
				}
				if want := strings.Join(full.Refusals(), "; "); c.Skip != want {
					t.Errorf("%s: skip %q, rules say %q", c.Name, c.Skip, want)
				}
				if c.Skip != "" {
					skipped++
				} else if !reflect.DeepEqual(c.Opts, full) {
					t.Errorf("%s: compiled %+v, want %+v", c.Name, c.Opts, full)
				}
			}
		}
	}
	if skipped < 8 || skipped > 64-8 {
		t.Errorf("lattice: %d of 64 cells skipped, want both sides populated", skipped)
	}
	if tagged := (pipeline.Options{Strategy: gc.StratTagged, MarkSweep: true}).Refusals(); len(tagged) != 1 {
		t.Errorf("tagged mark/sweep: refusals %q, want exactly one", tagged)
	}
}

package pipeline

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite README.md's generated Modes and flags table")

// TestKnobRowsNameOptionsFields holds the table's stringly part to the
// struct: every Options row names an existing field of the type its Kind
// stores, and no flag is declared twice. (The Serve rows are checked against
// serve.Config by the serve package, which can see it.)
func TestKnobRowsNameOptionsFields(t *testing.T) {
	flags := map[string]bool{}
	for _, k := range Knobs {
		if flags[k.Flag] || k.Flag == "" {
			t.Errorf("flag %q empty or declared twice", k.Flag)
		}
		flags[k.Flag] = true
		if k.Serve {
			continue
		}
		f, ok := reflect.TypeOf(Options{}).FieldByName(k.Field)
		if !ok {
			t.Errorf("-%s: Options has no field %q", k.Flag, k.Field)
			continue
		}
		if !kindStores(k.Kind, f.Type) {
			t.Errorf("-%s: kind %d does not store into %s %s", k.Flag, k.Kind, k.Field, f.Type)
		}
	}
	for _, r := range Rules {
		if !flags[r.Flag] {
			t.Errorf("rule %q constrains unknown flag %q", r.Sentence, r.Flag)
		}
	}
}

func kindStores(k Kind, t reflect.Type) bool {
	switch k {
	case Bool:
		return t.Kind() == reflect.Bool
	case Float:
		return t.Kind() == reflect.Float64
	case Strategy:
		return t.String() == "gc.Strategy"
	}
	return t.Kind() == reflect.Int || t.Kind() == reflect.Int64
}

// renderModes is the generator of README's "Modes and flags" table:
// one row per knob, its range from Knob.Range and its requires/excludes
// column from the Rules that constrain it.
func renderModes() string {
	var b strings.Builder
	b.WriteString("| flag | values | effect | requires / excludes |\n|---|---|---|---|\n")
	for i := range Knobs {
		k := &Knobs[i]
		values := k.Range()
		switch k.Kind {
		case Bool:
			values = "on/off"
		case Strategy:
			values = "a strategy name"
		}
		if k.Unit != "" {
			values += " " + k.Unit
		}
		var rules []string
		for _, r := range Rules {
			if r.Flag == k.Flag {
				rules = append(rules, r.Sentence)
			}
		}
		fmt.Fprintf(&b, "| `-%s` | %s | %s | %s |\n", k.Flag, values, k.Help, strings.Join(rules, "; "))
	}
	return b.String()
}

// TestReadmeModesTableIsGenerated keeps README's table equal to the knob
// and rule tables; `go test ./internal/pipeline -run ReadmeModes -update`
// rewrites it.
func TestReadmeModesTableIsGenerated(t *testing.T) {
	const path, begin, end = "../../README.md", "<!-- modes:begin -->\n", "<!-- modes:end -->"
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	readme := string(src)
	i, j := strings.Index(readme, begin), strings.Index(readme, end)
	if i < 0 || j < i {
		t.Fatalf("README.md lacks the %q … %q markers", begin, end)
	}
	want := renderModes()
	if got := readme[i+len(begin) : j]; got == want {
		return
	}
	if !*update {
		t.Fatalf("README.md's Modes and flags table is stale; regenerate with -update. Want:\n%s", want)
	}
	if err := os.WriteFile(path, []byte(readme[:i+len(begin)]+want+readme[j:]), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFlagRangesAtTheEdges: for every numeric knob (one subtest each), at 0,
// -1 and one either side of each end of its range, BindFlags accepts exactly
// the in-range values (0 only where the row's Zero says what it means) and
// rejects the rest with the knob's range sentence after the flag package's
// preamble.
func TestFlagRangesAtTheEdges(t *testing.T) {
	for i := range Knobs {
		k := &Knobs[i]
		if k.Kind != Int && k.Kind != Float {
			continue
		}
		t.Run(k.Flag, func(t *testing.T) {
			values := []int64{0, -1, k.Min - 1, k.Min, k.Min + 1}
			if k.Max != 0 {
				values = append(values, k.Max-1, k.Max, k.Max+1)
			}
			for _, n := range values {
				aboveMin := n > k.Min || n == k.Min && k.Kind == Int // a Float's range is open below
				inRange := aboveMin && (k.Max == 0 || n <= k.Max) || n == 0 && k.Zero != ""
				v := fmt.Sprint(n)
				fs := flag.NewFlagSet("x", flag.ContinueOnError)
				fs.SetOutput(io.Discard)
				BindFlags(fs, &Options{}, serveTarget())
				err := fs.Parse([]string{"-" + k.Flag, v})
				if inRange != (err == nil) {
					t.Errorf("-%s %s: in range %v, flag says %v", k.Flag, v, inRange, err)
					continue
				}
				if err != nil && !strings.HasSuffix(err.Error(), ": "+k.outOfRange(v).Error()) {
					t.Errorf("-%s %s: %v does not end in the range sentence %q", k.Flag, v, err, k.outOfRange(v))
				}
			}
		})
	}
}

// serveTarget stands in for the serve.Config a Serve row sets, which this
// package cannot import: a struct with an int64 field for every Serve row.
func serveTarget() any {
	var fields []reflect.StructField
	for _, k := range Knobs {
		if k.Serve {
			fields = append(fields, reflect.StructField{Name: k.Field, Type: reflect.TypeOf(int64(0))})
		}
	}
	return reflect.New(reflect.StructOf(fields)).Interface()
}

// TestNegativeSizesAreRefused: Options built in Go skip the input ranges
// (tests run 4-word heaps), but a negative size or count must not reach
// heap.New's make() — validate refuses it on both execution paths.
func TestNegativeSizesAreRefused(t *testing.T) {
	for _, o := range []Options{{HeapWords: -1}, {NurseryWords: -16}, {TLABWords: -5},
		{MaxHeapWords: -1}, {GrowFactor: -2}, {BudgetSteps: -1}, {FailAllocNth: -1}} {
		if _, err := Run(`let main () = 7`, o); err == nil || !strings.Contains(err.Error(), "must not be negative") {
			t.Errorf("Run(%+v): got %v, want the refusal", o, err)
		}
		if _, err := RunTasks(`let task_a () = 7`, []string{"task_a"}, o); err == nil || !strings.Contains(err.Error(), "must not be negative") {
			t.Errorf("RunTasks(%+v): got %v, want the refusal", o, err)
		}
	}
	if res, err := Run(`let main () = 7`, Options{HeapWords: 4}); err != nil || res.Value != 7 {
		t.Errorf("a 4-word heap is below the input range but legal from Go: got %v, %v", res, err)
	}
}

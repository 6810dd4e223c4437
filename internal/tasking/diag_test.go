package tasking_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
)

var updateDiag = flag.Bool("update-diagnostics", false, "rewrite testdata/diagnostics.json")

// diagSrc faults in every way the diagnostics golden pins. deep reaches its
// division five frames down, alternating direct and closure calls; inclos
// fails a match inside a closure; spin and hog run into a step budget and an
// exhausted recovery ladder.
const diagSrc = `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec len xs = match xs with | [] -> 0 | _ :: r -> len r + 1
let apply f x = f x
let d5 x = 100 / x
let d4 x = apply (fun y -> d5 y + 1) x
let d3 x = d4 x + 1
let d2 x = apply (fun y -> d3 y + 1) x
let d1 x = d2 x + 1
let deep () = d1 0
let head xs = apply (fun l -> (match l with | x :: _ -> x)) xs
let inclos () = head (upto 0)
let rec loop n = if n = 0 then 0 else loop (n - 1)
let spin () = loop 100000
let hog () = len (upto 4000)
`

// TestDiagnosticsGolden pins the full text of every kind of task fault —
// function names, pcs and frame order — against a file recorded on the
// interpreter that kept a shadow stack of function indexes. The names now
// come from return addresses (code.Program.FuncAt), so a frame the lookup
// misattributes, drops or reorders shows here byte for byte.
func TestDiagnosticsGolden(t *testing.T) {
	got := map[string]string{}
	tasks := func(name, src string, entries []string, opts pipeline.Options) {
		t.Helper()
		res, err := pipeline.RunTasks(src, entries, opts)
		if err != nil {
			got[name] = "run error: " + err.Error()
			return
		}
		for i, f := range res.Faults {
			if f != nil {
				got[fmt.Sprintf("%s/%s", name, entries[i])] = f.Error()
			}
		}
	}
	single := func(name, src string, opts pipeline.Options) {
		t.Helper()
		if _, err := pipeline.Run(src, opts); err != nil {
			got[name] = err.Error()
		} else {
			got[name] = "no error"
		}
	}

	for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratTagged} {
		s := strat.String()
		tasks("runtime/"+s, diagSrc, []string{"deep", "inclos"}, pipeline.Options{Strategy: strat, HeapWords: 4096})
		single("single-deep/"+s, diagSrc+"let main () = deep ()\n", pipeline.Options{Strategy: strat, HeapWords: 4096})
	}
	tasks("budget", diagSrc, []string{"spin"}, pipeline.Options{Strategy: gc.StratCompiled, HeapWords: 4096, BudgetSteps: 5000})
	tasks("budget-allocs", diagSrc, []string{"hog"}, pipeline.Options{
		Strategy: gc.StratCompiled, HeapWords: 1 << 15, BudgetAllocWords: 300, SuspendAtAllocs: true})
	tasks("oom", diagSrc, []string{"hog"}, pipeline.Options{Strategy: gc.StratCompiled, HeapWords: 1024})
	tasks("oom-marksweep-nursery", diagSrc, []string{"hog"}, pipeline.Options{
		Strategy: gc.StratCompiled, HeapWords: 1024, MarkSweep: true, NurseryWords: 128, TLABWords: 32})

	initSrc := `
let zero () = 0
let inv x = 1000 / x
let table = inv (zero ())
let probe () = table
let main () = probe ()
`
	tasks("init", initSrc, []string{"probe"}, pipeline.Options{Strategy: gc.StratCompiled})
	single("init-single", initSrc, pipeline.Options{Strategy: gc.StratCompiled})
	single("init-steplimit", "let rec loop n = if n = 0 then 0 else loop (n - 1)\nlet x = loop 100000\nlet main () = x\n",
		pipeline.Options{Strategy: gc.StratCompiled, MaxSteps: 3000})

	const path = "testdata/diagnostics.json"
	if *updateDiag {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s:\n got %s\nwant %s", name, got[name], w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: fault not in the golden: %s", name, got[name])
		}
	}
}

package vm_test

import (
	"strings"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
)

// run compiles and executes src under the given strategy, returning the
// pipeline result (the vm package is exercised through its real driver).
func run(t *testing.T, src string, strat gc.Strategy, heap int) *pipeline.Result {
	t.Helper()
	res, err := pipeline.Run(src, pipeline.Options{Strategy: strat, HeapWords: heap})
	if err != nil {
		t.Fatalf("[%v] %v", strat, err)
	}
	return res
}

func TestArithmeticIdentities(t *testing.T) {
	// Exercise every arithmetic opcode in both representations with values
	// chosen to catch tag-handling slips (negatives, zero, large).
	src := `
let main () =
  let a = 17 * -3 in
  let b = -100 / 7 in
  let c = 100 mod 7 in
  let d = 0 - a in
  let e = (1 <= 1) && (2 < 3) && (3 >= 3) && (4 > 3) && (5 = 5) && (6 <> 7) in
  a * 1000000 + b * 10000 + c * 100 + d + (if e then 1 else 0) - 1
`
	want := int64(17*-3)*1000000 + int64(-100/7)*10000 + int64(100%7)*100 + 51
	for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratTagged} {
		res := run(t, src, strat, 1024)
		if res.Value != want {
			t.Errorf("[%v] = %d, want %d", strat, res.Value, want)
		}
	}
}

func TestNegativeDivisionMatchesGo(t *testing.T) {
	// MinML division truncates toward zero (Go semantics) identically in
	// both representations.
	src := `let main () = (-7 / 2) * 100 + (-7 mod 2)`
	for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratTagged} {
		res := run(t, src, strat, 1024)
		if res.Value != -301 {
			t.Errorf("[%v] = %d, want -301", strat, res.Value)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	for _, src := range []string{
		`let main () = 1 / 0`,
		`let main () = 1 mod 0`,
	} {
		for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratTagged} {
			_, err := pipeline.Run(src, pipeline.Options{Strategy: strat})
			if err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Errorf("[%v] %q: got %v", strat, src, err)
			}
		}
	}
}

func TestStepLimit(t *testing.T) {
	src := `
let rec spin n = if n = 0 then 0 else spin n
let main () = spin 1
`
	_, err := pipeline.Run(src, pipeline.Options{Strategy: gc.StratCompiled, MaxSteps: 10_000})
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("got %v, want step limit error", err)
	}
}

func TestDeepStackGrows(t *testing.T) {
	// 20k-deep recursion exercises machine stack growth across frame
	// pushes; the collector must still walk the grown stack.
	src := `
let rec down n acc =
  if n = 0 then acc
  else (let cell = [n] in down (n - 1) (acc + (match cell with | x :: _ -> x | [] -> 0)))
let main () = down 20000 0
`
	res := run(t, src, gc.StratCompiled, 1<<15)
	want := int64(20000) * 20001 / 2
	if res.Value != want {
		t.Fatalf("= %d, want %d", res.Value, want)
	}
	if res.VMStats.MaxFrameDepth < 20000 {
		t.Fatalf("max frame depth %d, want >= 20000", res.VMStats.MaxFrameDepth)
	}
}

func TestOutputOrdering(t *testing.T) {
	src := `
let rec count n =
  if n = 0 then ()
  else (print_int n; print_string " "; count (n - 1))
let main () = count 5; 0
`
	res := run(t, src, gc.StratCompiled, 1024)
	if res.Output != "5 4 3 2 1 " {
		t.Fatalf("output %q", res.Output)
	}
}

func TestVMStatsCounted(t *testing.T) {
	src := `
let f x = [x]
let main () =
  let g = fun y -> y + 1 in
  match f (g 1) with | x :: _ -> x | [] -> 0
`
	res := run(t, src, gc.StratCompiled, 1024)
	if res.VMStats.Calls == 0 {
		t.Error("direct calls not counted")
	}
	if res.VMStats.ClosCalls == 0 {
		t.Error("closure calls not counted")
	}
	if res.VMStats.Allocations < 2 {
		t.Errorf("allocations = %d, want >= 2 (closure + cons)", res.VMStats.Allocations)
	}
	if res.VMStats.Instructions == 0 {
		t.Error("instructions not counted")
	}
}

func TestZeroFillOnlyWhereNeeded(t *testing.T) {
	src := `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let main () = sum (upto 50)
`
	precise := run(t, src, gc.StratCompiled, 1024)
	appel := run(t, src, gc.StratAppel, 1024)
	if precise.VMStats.ZeroFilledWords != 0 {
		t.Errorf("compiled mode zero-filled %d words; live maps make it unnecessary",
			precise.VMStats.ZeroFilledWords)
	}
	if appel.VMStats.ZeroFilledWords == 0 {
		t.Error("appel mode must zero-fill frames (uninitialized variables, §1.1.1)")
	}
}

func TestGlobalsSurviveCollections(t *testing.T) {
	src := `
let keep = [1; 2; 3; 4; 5]
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let blip n = (let _ = [n; n] in 0)
let rec churn n = if n = 0 then 0 else blip n + churn (n - 1)
let main () = churn 500 + sum keep
`
	res := run(t, src, gc.StratCompiled, 512)
	if res.Value != 15 {
		t.Fatalf("= %d, want 15 (globals moved or corrupted)", res.Value)
	}
	if res.HeapStats.Collections == 0 {
		t.Fatal("test needs collections to be meaningful")
	}
}

func TestRawWordDecoding(t *testing.T) {
	src := `let main () = true`
	free := run(t, src, gc.StratCompiled, 256)
	if !code.DecodeBool(code.ReprTagFree, free.Raw) {
		t.Error("tag-free raw bool decode failed")
	}
	tag := run(t, src, gc.StratTagged, 256)
	if !code.DecodeBool(code.ReprTagged, tag.Raw) {
		t.Error("tagged raw bool decode failed")
	}
}

package codegen_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/compile/codegen"
	"tagfree/internal/compile/gcanal"
	"tagfree/internal/compile/lower"
	"tagfree/internal/mlang/parser"
	"tagfree/internal/mlang/types"
)

func compile(t *testing.T, src string, repr code.Repr) *code.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	irp, err := lower.Lower(prog, info)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	gcanal.Analyze(irp)
	p, err := codegen.Compile(irp, repr)
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	return p
}

const sampleSrc = `
type tree = Leaf | Node of tree * int * tree
let rec build d = if d = 0 then Leaf else Node (build (d - 1), d, build (d - 1))
let rec tsum t = match t with | Leaf -> 0 | Node (l, v, r) -> tsum l + v + tsum r
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let main () =
  let t = build 4 in
  let xs = map (fun x -> x + tsum t) [1; 2; 3] in
  match xs with | x :: _ -> x | [] -> 0
`

// TestGCWordsAddressableFromReturnAddresses decodes every instruction of
// every function and checks that each call/alloc instruction's gc_word is
// either -1 (elided) or indexes a site owned by that function — the
// Figure 1 invariant the collectors rely on.
func TestGCWordsAddressableFromReturnAddresses(t *testing.T) {
	for _, repr := range []code.Repr{code.ReprTagFree, code.ReprTagged} {
		p := compile(t, sampleSrc, repr)
		checked := 0
		for fidx, f := range p.Funcs {
			end := len(p.Code)
			for _, g := range p.Funcs {
				if g.Entry > f.Entry && g.Entry < end {
					end = g.Entry
				}
			}
			for pc := f.Entry; pc < end; pc += code.InstrLen(p.Code, pc) {
				off := code.GCWordOffset(p.Code[pc])
				if off < 0 {
					continue
				}
				gcw := p.Code[pc+off]
				if gcw == -1 {
					checked++
					continue
				}
				if gcw < 0 || int(gcw) >= len(p.Sites) {
					t.Fatalf("[%v] pc %d: gc_word %d out of range", repr, pc, gcw)
				}
				if p.Sites[gcw].Func != fidx {
					t.Fatalf("[%v] pc %d: gc_word %d belongs to function %d, not %d",
						repr, pc, gcw, p.Sites[gcw].Func, fidx)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("[%v] no call/alloc instructions found", repr)
		}
	}
}

// TestFrameMapsOnlyPointerBearing checks that no frame map entry has a
// descriptor that cannot hold pointers (those slots are omitted entirely).
func TestFrameMapsOnlyPointerBearing(t *testing.T) {
	p := compile(t, sampleSrc, code.ReprTagFree)
	for i, si := range p.Sites {
		for _, e := range si.Live {
			if !e.Desc.MayHoldPointer() {
				t.Errorf("site %d: slot %d has non-pointer descriptor %s", i, e.Slot, e.Desc)
			}
		}
	}
	for _, fi := range p.Funcs {
		for _, e := range fi.AllSlots {
			if !e.Desc.MayHoldPointer() {
				t.Errorf("func %s: Appel slot %d has non-pointer descriptor", fi.Name, e.Slot)
			}
		}
	}
}

// TestDescriptorHashConsing verifies identical types share descriptor
// nodes across the program.
func TestDescriptorHashConsing(t *testing.T) {
	p := compile(t, sampleSrc, code.ReprTagFree)
	seen := map[string]*code.TypeDesc{}
	var walk func(d *code.TypeDesc)
	walk = func(d *code.TypeDesc) {
		key := d.String()
		if prev, ok := seen[key]; ok {
			if prev != d {
				t.Fatalf("descriptor %s duplicated", key)
			}
			return
		}
		seen[key] = d
		for _, a := range d.Args {
			walk(a)
		}
	}
	for _, si := range p.Sites {
		for _, e := range si.Live {
			walk(e.Desc)
		}
	}
	if p.DescNodes == 0 || p.DescNodes > 200 {
		t.Errorf("DescNodes = %d, implausible for this program", p.DescNodes)
	}
}

// TestConstPoolEncodedPerRepr verifies constants are representation-encoded.
func TestConstPoolEncodedPerRepr(t *testing.T) {
	src := `let main () = 21`
	free := compile(t, src, code.ReprTagFree)
	tagged := compile(t, src, code.ReprTagged)
	has := func(p *code.Program, w code.Word) bool {
		for _, c := range p.Consts {
			if c == w {
				return true
			}
		}
		return false
	}
	if !has(free, 21) {
		t.Error("tag-free constant pool should hold raw 21")
	}
	if !has(tagged, 21<<1|1) {
		t.Error("tagged constant pool should hold tagged 21")
	}
}

// TestTaggedArithmeticVariants ensures tagged compilation uses the
// tag-stripping opcodes and tag-free does not.
func TestTaggedArithmeticVariants(t *testing.T) {
	src := `let main () = (3 * 4) + (10 / 2) - (7 mod 3)`
	countOps := func(p *code.Program, ops ...code.Op) int {
		want := map[code.Op]bool{}
		for _, o := range ops {
			want[o] = true
		}
		n := 0
		for pc := 0; pc < len(p.Code); pc += code.InstrLen(p.Code, pc) {
			if want[p.Code[pc]] {
				n++
			}
		}
		return n
	}
	free := compile(t, src, code.ReprTagFree)
	tagged := compile(t, src, code.ReprTagged)
	if countOps(free, code.OpTAdd, code.OpTSub, code.OpTMul, code.OpTDiv, code.OpTMod) != 0 {
		t.Error("tag-free code must not use tagged arithmetic")
	}
	if countOps(tagged, code.OpAdd, code.OpSub, code.OpMul, code.OpDiv, code.OpMod) != 0 {
		t.Error("tagged code must not use raw arithmetic")
	}
	if countOps(tagged, code.OpTMul) == 0 || countOps(tagged, code.OpTDiv) == 0 {
		t.Error("tagged code should use TMUL/TDIV")
	}
}

// TestDisassemblerCoversEverything disassembles every function of a
// program touching all instruction forms without panicking.
func TestDisassemblerCoversEverything(t *testing.T) {
	src := `
type t = A | B of int * bool | C of int
let r = ref 5
let rec f x = if x = 0 then 0 else f (x - 1)
let g p = match p with | A -> !r | B (n, b) -> (r := n; if b then n else 0 - n) | C n -> n
let main () =
  let clos = fun y -> y * 2 in
  let pair = (1, clos 3) in
  print_int (g (B (4, true)));
  f (match pair with (a, b) -> a + b)
`
	p := compile(t, src, code.ReprTagFree)
	var out strings.Builder
	for i := range p.Funcs {
		out.WriteString(p.DisasmFunc(i))
	}
	text := out.String()
	for _, mnemonic := range []string{"call", "callc", "mkbox", "mkclos", "mkref",
		"mktuple", "ldfld", "stfld", "tagis", "isboxed", "builtin", "ret", "jz"} {
		if !strings.Contains(text, mnemonic) {
			t.Errorf("disassembly missing %q", mnemonic)
		}
	}
	if !strings.Contains(text, "gc_word") {
		t.Error("disassembly should mark embedded gc_words")
	}
}

// TestCallCArgsRecorded ensures closure-call sites carry the Figure-4 site
// type and the suspended-at-call argument map.
func TestCallCArgsRecorded(t *testing.T) {
	src := `
let apply f x = f x
let main () = apply (fun y -> [y]) 3
`
	p := compile(t, src, code.ReprTagFree)
	found := false
	for _, si := range p.Sites {
		if si.Kind != code.SiteCallC {
			continue
		}
		found = true
		if si.SiteType == nil || si.SiteType.Kind != code.TDArrow {
			t.Errorf("closure-call site lacks an arrow site type: %v", si.SiteType)
		}
	}
	if !found {
		t.Fatal("no closure-call site found")
	}
}

// TestMainOptional compiles a program without main (tasking-style).
func TestMainOptional(t *testing.T) {
	p := compile(t, `let job () = 1`, code.ReprTagFree)
	if p.MainFunc != -1 {
		t.Fatalf("MainFunc = %d, want -1", p.MainFunc)
	}
	if p.FuncByName("job") < 0 {
		t.Fatal("job not compiled")
	}
}

var updateDisasm = flag.Bool("update-disasm", false, "rewrite testdata/disasm.golden")

// disasmSrc puts every operand kind in the code: slots, constants of each
// encoding (integers, booleans, nullary constructors, strings, interned
// type reps), globals read and written, and rep atoms built at run time.
const disasmSrc = `
type color = Red | Green | Blue of int
let limit = 40
let cell = ref [1; 2]
let rec len xs = match xs with | [] -> 0 | _ :: r -> len r + 1
let pair x = (x, x)
let rec copy xs = match xs with | [] -> [] | x :: r -> pair x :: copy r
let paint n = if n > limit then Blue n else if n = 0 then Red else Green
let make_thunk x =
  let th = fun () -> (let _ = [(x, x)] in 0) in
  th
let wrap y = make_thunk [y]
let note b = (let _ = print_string "n=" in let _ = print_bool b in print_newline ())
let main () =
  let th = wrap limit in
  let _ = th () in
  let old = !cell in
  let _ = cell := 3 :: old in
  let _ = note (len (copy [true; false]) = 2) in
  let now = !cell in
  (match paint (len now) with | Blue k -> k | Red -> 0 - 1 | Green -> limit / 2)
`

// TestDisasmGolden pins the disassembly of disasmSrc under both
// representations against text recorded before the operand encoding changed:
// s/c/g operands, their indexes and every instruction's pc must read the same
// whatever the words of an operand look like.
func TestDisasmGolden(t *testing.T) {
	var b strings.Builder
	for _, repr := range []code.Repr{code.ReprTagFree, code.ReprTagged} {
		p := compile(t, disasmSrc, repr)
		fmt.Fprintf(&b, "== %v: %d code words, %d consts, %d globals\n", repr, len(p.Code), len(p.Consts), len(p.Globals))
		for i := range p.Funcs {
			b.WriteString(p.DisasmFunc(i))
		}
	}
	const path = "testdata/disasm.golden"
	if *updateDisasm {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("disassembly differs at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("disassembly has %d lines, golden %d", len(gl), len(wl))
	}
}

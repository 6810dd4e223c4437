package pipeline

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/mlang/lexer"
	"tagfree/internal/mlang/token"
	"tagfree/internal/workloads"
)

// corpusProgram is one named source of the compile corpus.
type corpusProgram struct{ name, src string }

// compileCorpus is every committed program the compiler can be held to:
// the three internal/workloads lists, and one generated source of a few
// hundred functions. A showcase program keeps the key it had as a file of
// its own, progs/<name>.ml.
func compileCorpus(t testing.TB) []corpusProgram {
	var out []corpusProgram
	for _, w := range workloads.Showcase {
		out = append(out, corpusProgram{"progs/" + w.Name + ".ml", w.Source})
	}
	for _, w := range workloads.All {
		out = append(out, corpusProgram{"workloads/" + w.Name, w.Source})
	}
	for _, w := range workloads.Tasking {
		out = append(out, corpusProgram{"tasking/" + w.Name, w.Source})
	}
	return append(out, corpusProgram{"generated/x3", manyFunctionSource(t, 3)})
}

// manyFunctionSource is a deterministic large program: copies of every
// internal/workloads source, each copy's identifiers and constructors
// suffixed with the copy number so that no datatype is declared twice. Three
// copies hold a few hundred functions.
func manyFunctionSource(t testing.TB, copies int) string {
	reserved := map[string]bool{
		"int": true, "bool": true, "unit": true, "string": true, "list": true,
		"print_int": true, "print_bool": true, "print_string": true, "print_newline": true,
	}
	var srcs []string
	for _, w := range workloads.All {
		srcs = append(srcs, w.Source)
	}
	for _, w := range workloads.Tasking {
		srcs = append(srcs, w.Source)
	}
	var b strings.Builder
	for k := 0; k < copies; k++ {
		for i, src := range srcs {
			suffix := fmt.Sprintf("_%d_%d", k, i)
			lineStart := []int{0}
			for off, c := range src {
				if c == '\n' {
					lineStart = append(lineStart, off+1)
				}
			}
			at := 0
			for _, tok := range lexer.New(src).All() {
				if (tok.Kind != token.IDENT && tok.Kind != token.CTOR) || reserved[tok.Text] {
					continue
				}
				end := lineStart[tok.Pos.Line-1] + tok.Pos.Col - 1 + len(tok.Text)
				if src[end-len(tok.Text):end] != tok.Text {
					t.Fatalf("corpus source %d is not ASCII around %v", i, tok.Pos)
				}
				b.WriteString(src[at:end])
				b.WriteString(suffix)
				at = end
			}
			b.WriteString(src[at:])
			b.WriteByte('\n')
		}
	}
	b.WriteString("let main () = 0\n")
	return b.String()
}

// fingerprint renders everything of a compiled program that the run time or
// a collector reads: the disassembly, every function's metadata, every
// site's frame map, the globals, constants, layouts and store descriptors.
func fingerprint(p *code.Program) string {
	var b strings.Builder
	slots := func(label string, es []code.SlotEntry) {
		fmt.Fprintf(&b, " %s[", label)
		for _, e := range es {
			fmt.Fprintf(&b, " %d:%s", e.Slot, e.Desc)
		}
		b.WriteString(" ]")
	}
	fmt.Fprintf(&b, "repr %v code %d consts %v init %d main %d descnodes %d reps %d strings %q\n",
		p.Repr, len(p.Code), p.Consts, p.InitFunc, p.MainFunc, p.DescNodes, p.Reps.Len(), p.Strings)
	for i := 0; i < p.Reps.Len(); i++ {
		fmt.Fprintf(&b, "rep %d %+v\n", i, p.Reps.Entry(i))
	}
	for i, f := range p.Funcs {
		fmt.Fprintf(&b, "func %d %s entry %d params %d slots %d env %v repargs %d@%d %v tyenv %d own %d src %d derivs %v repword %v/%d sites %d captures %v",
			i, f.Name, f.Entry, f.NParams, f.NSlots, f.HasEnv, f.NRepArgs, f.RepArgBase, f.RepArgPos,
			f.TypeEnvLen, f.OwnVars, f.TypeSource, f.Derivs, f.RepWord, f.NumRepWords, f.NumSites, f.Captures)
		slots("all", f.AllSlots)
		b.WriteByte('\n')
		b.WriteString(p.DisasmFunc(i))
	}
	for i, s := range p.Sites {
		fmt.Fprintf(&b, "site %d func %d kind %d callee %d inst %v type %v", i, s.Func, s.Kind, s.Callee, s.CalleeInst, s.SiteType)
		slots("live", s.Live)
		slots("args", s.Args)
		b.WriteByte('\n')
	}
	for i, g := range p.Globals {
		fmt.Fprintf(&b, "global %d %s %s\n", i, g.Name, g.Desc)
	}
	for i, d := range p.Data {
		fmt.Fprintf(&b, "data %d %s tagword %v nullary %v", i, d.Name, d.HasTagWord, d.NullaryNames)
		for _, c := range d.Boxed {
			fmt.Fprintf(&b, " %s%v", c.Name, c.Fields)
		}
		b.WriteByte('\n')
	}
	pcs := make([]int, 0, len(p.StoreDescs))
	for pc := range p.StoreDescs {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		fmt.Fprintf(&b, "store %d %s\n", pc, p.StoreDescs[pc])
	}
	return b.String()
}

// fingerprintConfigs are the builds a program is fingerprinted under: both
// representations, and the two options that change which call sites keep a
// gc_word.
var fingerprintConfigs = []struct {
	name string
	opts Options
}{
	{"tagfree", Options{Strategy: gc.StratCompiled}},
	{"tagged", Options{Strategy: gc.StratTagged}},
	{"tagfree+cfa", Options{Strategy: gc.StratCompiled, UseCFA: true}},
	{"tagfree+noelide", Options{Strategy: gc.StratCompiled, DisableGCWordElision: true}},
}

// TestCompileFingerprint holds the compiler's whole output, over the whole
// corpus, to what it was when testdata/compile_fingerprint.golden was
// recorded (go test ./internal/pipeline -run CompileFingerprint -update): a
// change to a compile-time data structure must not move one word of code or
// one frame-map entry. The golden keeps a hash per build and three sizes to
// say roughly where a difference lies; FINGERPRINT_DUMP=<dir> writes the full
// renderings there, to diff against a dump made at another commit.
func TestCompileFingerprint(t *testing.T) {
	const path = "testdata/compile_fingerprint.golden"
	dump := os.Getenv("FINGERPRINT_DUMP")
	var b strings.Builder
	for _, cp := range compileCorpus(t) {
		for _, cfg := range fingerprintConfigs {
			prog, _, err := Build(cp.src, cfg.opts)
			if err != nil {
				t.Fatalf("%s (%s): %v", cp.name, cfg.name, err)
			}
			text := fingerprint(prog)
			fmt.Fprintf(&b, "%s %s code=%d sites=%d descnodes=%d sha256=%x\n",
				cp.name, cfg.name, len(prog.Code), len(prog.Sites), prog.DescNodes, sha256.Sum256([]byte(text)))
			if dump != "" {
				name := strings.ReplaceAll(cp.name, "/", "_") + "." + cfg.name + ".txt"
				if err := os.WriteFile(filepath.Join(dump, name), []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d fingerprints, golden has %d", len(gl)-1, len(wl)-1)
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("compiled program differs:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}

// TestBuildDeterministic: two builds of one source are deeply equal, so no
// compile-time table can leak a map's iteration order into the program.
func TestBuildDeterministic(t *testing.T) {
	for _, cp := range compileCorpus(t) {
		for _, cfg := range fingerprintConfigs {
			a, _, err := Build(cp.src, cfg.opts)
			if err != nil {
				t.Fatalf("%s (%s): %v", cp.name, cfg.name, err)
			}
			b, _, err := Build(cp.src, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s (%s): two builds of the same source differ", cp.name, cfg.name)
			}
		}
	}
}

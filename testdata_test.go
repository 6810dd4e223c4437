package tagfree_test

// Runs every MinML program under testdata/progs under all four collectors
// (plus mark/sweep and 0-CFA configurations of the compiled one) with a
// small heap, asserting the strategies agree with each other; and holds the
// Makefile's go test targets to the tests that exist.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
)

func TestTestdataProgramsAgree(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "progs", "*.ml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no testdata programs found")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			srcBytes, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			src := string(srcBytes)

			type config struct {
				name string
				opts pipeline.Options
			}
			configs := []config{
				{"compiled", pipeline.Options{Strategy: gc.StratCompiled}},
				{"interp", pipeline.Options{Strategy: gc.StratInterp}},
				{"appel", pipeline.Options{Strategy: gc.StratAppel}},
				{"tagged", pipeline.Options{Strategy: gc.StratTagged}},
				{"compiled-ms", pipeline.Options{Strategy: gc.StratCompiled, MarkSweep: true}},
				{"compiled-cfa", pipeline.Options{Strategy: gc.StratCompiled, UseCFA: true}},
			}
			var reference int64
			var refOutput string
			for i, cfg := range configs {
				cfg.opts.HeapWords = 2048
				cfg.opts.MaxSteps = 100_000_000
				res, err := pipeline.Run(src, cfg.opts)
				if err != nil {
					t.Fatalf("[%s] %v", cfg.name, err)
				}
				if i == 0 {
					reference = res.Value
					refOutput = res.Output
					continue
				}
				if res.Value != reference {
					t.Errorf("[%s] result %d differs from compiled's %d", cfg.name, res.Value, reference)
				}
				if res.Output != refOutput {
					t.Errorf("[%s] output %q differs from compiled's %q", cfg.name, res.Output, refOutput)
				}
			}
		})
	}
}

// TestMakefileNamesExistingTests: every Test, Fuzz or Benchmark name the
// Makefile hands to go test's -run, -bench or -fuzz (or a test binary's
// -test.run, -test.bench) must be a function some _test.go file defines —
// a renamed test otherwise leaves its target matching nothing, and go test
// says "no tests to run" or "no fuzz tests to fuzz" and exits 0. A name
// passed through a make variable ($(GC_BENCH)) is resolved from the
// variable's assignment.
func TestMakefileNamesExistingTests(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	makefile := string(src)
	vars := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^([A-Z_]+)\s*\??=\s*(.*)$`).FindAllStringSubmatch(makefile, -1) {
		vars[m[1]] = m[2]
	}
	expand := regexp.MustCompile(`\$\(([A-Z_]+)\)`)
	name := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*`)
	var used []string
	for _, m := range regexp.MustCompile(`-(?:test\.)?(?:run|bench|fuzz)[ =]('[^']*'|\S+)`).FindAllStringSubmatch(makefile, -1) {
		arg := expand.ReplaceAllStringFunc(m[1], func(v string) string { return vars[v[2:len(v)-1]] })
		used = append(used, name.FindAllString(arg, -1)...)
	}
	if len(used) < 5 {
		t.Fatalf("found only %d test names in the Makefile's go test flags: %q", len(used), used)
	}

	defined := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		body, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(body), -1) {
			defined[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range used {
		if !defined[n] {
			t.Errorf("the Makefile runs %s, which no _test.go file defines", n)
		}
	}
}

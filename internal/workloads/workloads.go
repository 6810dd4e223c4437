// Package workloads is the program corpus: the MinML programs with known
// results that the experiment harness (EXPERIMENTS.md), the Go benchmarks,
// the mode lattice and the cross-strategy agreement tests all run. Each is
// one file, corpus/<name>.ml, runnable as it stands with `tfgc run` or
// `tfgc tasks`; its leading comment states its known results (see parse).
// The mix follows the paper's motivating workloads: list manipulation (the
// append example of §2.4), trees, variant records (§2.3), closures and
// higher-order polymorphism (§3), arithmetic-only code (the §5.1 analysis),
// and ref-cell mutation.
package workloads

import (
	"embed"
	"fmt"
	"io/fs"
	"strconv"
	"strings"
)

// Workload is one single-task program.
type Workload struct {
	Name   string
	Source string
	// Expect is main's integer result.
	Expect int64
	// HeapWords is the recommended semispace size: small enough to force
	// frequent collections, large enough for the trace-everything modes.
	HeapWords int
	// AllocHeavy marks workloads whose cost is dominated by allocation
	// (used to split experiment tables).
	AllocHeavy bool
}

// TaskWorkload is one multi-task program: several unit -> int entry
// functions run as concurrent tasks over a shared heap. Used by the
// per-workload collection benchmarks and the cross-strategy differential
// suite.
type TaskWorkload struct {
	Name   string
	Source string
	// Entries names the task entry functions, in spawn order.
	Entries []string
	// Expect is each task's integer result, in entry order.
	Expect []int64
	// HeapWords is the recommended shared semispace size.
	HeapWords int
}

//go:embed corpus/*.ml
var corpus embed.FS

// The three lists name their files in presentation order, the order the
// experiment tables, the goldens and the mode lattice's cover read them in.
var (
	singleNames = []string{"fib", "tak", "listchurn", "btree", "nqueens", "qsort", "sieve",
		"polypipe", "closures", "evaluator", "mutate", "deeppoly", "cps", "thunks"}
	taskNames = []string{"taskchurn", "tasktree", "taskpoly", "taskmutate", "taskdeep",
		"taskspine", "taskserve"}
	showcaseNames = []string{"append", "partial", "envedge", "interp", "lambda", "mutual",
		"polymorphic", "trees", "alias", "builtinval"}
)

var (
	// All is the single-task benchmark corpus.
	All = singles(singleNames)
	// Tasking is the multi-task corpus.
	Tasking = func() (out []TaskWorkload) {
		for _, p := range load(taskNames) {
			out = append(out, TaskWorkload{p.name, p.source, p.entries, p.expect, p.heap})
		}
		return out
	}()
	// Showcase is the single-task programs that are no benchmark: larger
	// ones (a lambda-calculus interpreter, BSTs) and ones that reach one
	// compiler path each (an alias of a polymorphic function, a builtin
	// passed as a value).
	Showcase = singles(showcaseNames)
)

func singles(names []string) (out []Workload) {
	for _, p := range load(names) {
		out = append(out, Workload{p.name, p.source, p.expect[0], p.heap, p.allocHeavy})
	}
	return out
}

// program is one corpus file: its header's keys and the source after it.
type program struct {
	name, source string
	expect       []int64
	heap         int
	entries      []string
	allocHeavy   bool
}

// load parses the named corpus files. The corpus is compiled in, so a bad
// file is a bad build: it panics.
func load(names []string) []program {
	out := make([]program, len(names))
	for i, name := range names {
		p, err := parse(corpus, name)
		if err != nil {
			panic(err)
		}
		out[i] = p
	}
	return out
}

// parse reads corpus/<name>.ml. The file opens with a (* … *) comment whose
// first lines, up to a blank line, are key: value lines: expect (main's
// value, or each entry's, space-separated), heap (semispace words), entries
// (a task program's entry functions, space-separated) and alloc-heavy (true
// or false). The rest of the comment describes the program. Source is the
// text after the comment.
func parse(fsys fs.FS, name string) (program, error) {
	file := "corpus/" + name + ".ml"
	b, err := fs.ReadFile(fsys, file)
	if err != nil {
		return program{}, err
	}
	head, src, ok := strings.Cut(string(b), "*)")
	if !ok || !strings.HasPrefix(head, "(*") {
		return program{}, fmt.Errorf("%s: no leading (* … *) header", file)
	}
	p := program{name: name, source: src}
	for _, line := range strings.Split(strings.TrimSpace(head[2:]), "\n") {
		if line = strings.TrimSpace(line); line == "" {
			break
		}
		key, val, _ := strings.Cut(line, ":")
		val = strings.TrimSpace(val)
		switch key {
		case "expect":
			for _, f := range strings.Fields(val) {
				var n int64
				if n, err = strconv.ParseInt(f, 10, 64); err != nil {
					break
				}
				p.expect = append(p.expect, n)
			}
		case "heap":
			p.heap, err = strconv.Atoi(val)
		case "entries":
			p.entries = strings.Fields(val)
		case "alloc-heavy":
			p.allocHeavy, err = strconv.ParseBool(val)
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return program{}, fmt.Errorf("%s: header line %q: %v", file, line, err)
		}
	}
	switch {
	case p.expect == nil:
		return program{}, fmt.Errorf("%s: header has no expect", file)
	case p.heap <= 0:
		return program{}, fmt.Errorf("%s: header has no heap", file)
	case p.entries == nil && len(p.expect) != 1:
		return program{}, fmt.Errorf("%s: %d expected values for main", file, len(p.expect))
	case p.entries != nil && len(p.expect) != len(p.entries):
		return program{}, fmt.Errorf("%s: %d expected values for %d entries", file, len(p.expect), len(p.entries))
	}
	return p, nil
}

// ByName returns the named single-task workload.
func ByName(name string) (Workload, bool) {
	for _, w := range All {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// TaskByName returns the named task workload.
func TaskByName(name string) (TaskWorkload, bool) {
	for _, w := range Tasking {
		if w.Name == name {
			return w, true
		}
	}
	return TaskWorkload{}, false
}

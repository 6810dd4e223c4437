package workloads

import (
	"io/fs"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// TestCorpusFilesListedOnce: every corpus file is named by exactly one of
// the three lists, and every list's file parses — a file no list names is
// a program nothing runs.
func TestCorpusFilesListedOnce(t *testing.T) {
	files, err := fs.Glob(corpus, "corpus/*.ml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files (%v)", err)
	}
	named := slices.Concat(singleNames, taskNames, showcaseNames)
	lists := map[string]int{}
	for _, name := range named {
		lists[name]++
		if _, err := parse(corpus, name); err != nil {
			t.Error(err)
		}
	}
	for _, f := range files {
		if n := lists[strings.TrimSuffix(strings.TrimPrefix(f, "corpus/"), ".ml")]; n != 1 {
			t.Errorf("%s is named %d times by the lists, want once", f, n)
		}
	}
}

// TestParseHeader holds parse to its header grammar on files of its own.
func TestParseHeader(t *testing.T) {
	const body = "\nlet main () = 1\n"
	for _, c := range []struct {
		header string
		err    string // "" for a header that parses
	}{
		{"(* expect: 1\n   heap: 1024\n\n   a description: with a colon *)", ""},
		{"(* expect: 3 4\n   entries: a b\n   heap: 512 *)", ""},
		{"(* expect: 1\n   heap: 1024\n   alloc-heavy: true *)", ""},
		{"(* heap: 1024\n\n   expect: 1 *)", "no expect"},
		{"(* expect: 1 *)", "no heap"},
		{"(* expect: 1\n   heap: 1024\n   hep: 1 *)", `unknown key "hep"`},
		{"(* expect: 1\n   heap: 1024\n   description *)", `unknown key "description"`},
		{"(* expect: 3\n   entries: a b\n   heap: 512 *)", "1 expected values for 2 entries"},
		{"(* expect: 3 4 5\n   entries: a b\n   heap: 512 *)", "3 expected values for 2 entries"},
		{"(* expect: 3 4\n   heap: 512 *)", "2 expected values for main"},
		{"(* expect: x\n   heap: 512 *)", "invalid syntax"},
		{"(* expect: 1\n   heap: 512\n   alloc-heavy: maybe *)", "invalid syntax"},
		{"let main () = 1", "no leading"},
	} {
		fsys := fstest.MapFS{"corpus/prog.ml": {Data: []byte(c.header + body)}}
		p, err := parse(fsys, "prog")
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%q: %v", c.header, err)
		case c.err == "" && p.source != body:
			t.Errorf("%q: source %q, want %q", c.header, p.source, body)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err) || !strings.Contains(err.Error(), "corpus/prog.ml")):
			t.Errorf("%q: error %v, want one naming corpus/prog.ml and saying %q", c.header, err, c.err)
		}
	}
}

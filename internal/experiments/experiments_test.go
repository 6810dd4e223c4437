package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestAllExperimentsRun regenerates every table of List once (repeats=1)
// and asserts non-empty, well-formed output under the ID its name gives.
// It runs from a directory with no go.mod above it, as an installed tfbench
// does: no table may need the checkout's files (the full analysis lives in
// EXPERIMENTS.md).
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	tables := All(1)
	if len(tables) != len(List) {
		t.Fatalf("All ran %d tables, List has %d", len(tables), len(List))
	}
	for i, tb := range tables {
		if want := strings.ToUpper(List[i].Name); tb.ID != want {
			t.Errorf("List entry %q printed table %s", List[i].Name, tb.ID)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", tb.ID)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Errorf("%s: row width %d != header width %d", tb.ID, len(row), len(tb.Header))
			}
		}
		out := tb.Render()
		if !strings.Contains(out, tb.ID) || !strings.Contains(out, "claim:") {
			t.Errorf("%s: malformed rendering", tb.ID)
		}
	}
}

// TestE1Shape asserts the headline claim: tag-free allocates strictly
// fewer words on every allocation-heavy workload.
func TestE1Shape(t *testing.T) {
	tb := E1HeapSpace()
	for _, row := range tb.Rows {
		// columns: name, tagfree, tagged, ratio, ...
		if row[3] < "1.0" {
			t.Errorf("%s: tagged/tagfree ratio %s < 1.0 — the E1 claim failed", row[0], row[3])
		}
	}
}

// TestE6Shape asserts Appel's chain work grows superlinearly relative to
// the compiled walk.
func TestE6Shape(t *testing.T) {
	tb := E6PolyWalk()
	if len(tb.Rows) < 2 {
		t.Fatal("E6 needs at least two depths")
	}
	first := tb.Rows[0][3]
	last := tb.Rows[len(tb.Rows)-1][3]
	if !(len(last) > len(first) || last > first) {
		t.Errorf("appel/compiled ratio should grow with depth: %s -> %s", first, last)
	}
}

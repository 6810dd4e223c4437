package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsRun regenerates every table once (repeats=1) and
// asserts non-empty, well-formed output plus a handful of shape claims the
// paper makes (the full analysis lives in EXPERIMENTS.md).
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	tables := All(1)
	if len(tables) != 15 {
		t.Fatalf("expected 15 experiments, got %d", len(tables))
	}
	seen := map[string]*Table{}
	for _, tb := range tables {
		seen[tb.ID] = tb
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
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E16"} {
		if seen[id] == nil {
			t.Errorf("missing experiment %s", id)
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

package pipeline

import (
	"testing"

	"tagfree/internal/gc"
)

// TestConcurrentWatchdogAbort pins the abort rung: with a slice budget of
// one word and a one-slice watchdog, no real cycle can drain, so every
// attempt must abort and fall back to stop-the-world — counted in
// resilience telemetry — while the program still computes the right
// answers over a verified heap and leaves the stop-the-world live heap.
func TestConcurrentWatchdogAbort(t *testing.T) {
	g := checkCell(t, cell{prog: latticeTasks[0], opts: Options{MarkSweep: true,
		GCConcurrent: true, ConcTriggerPct: 30, ConcMarkBudget: 1, ConcMaxSlices: 1}})
	rs := g.Col.Telem.Resilience
	if rs.ConcAborts == 0 || g.Stats.Collections == 0 {
		t.Fatalf("expected watchdog aborts and stop-the-world fallbacks (resilience: %+v)", rs)
	}
	if n := records(g, func(r *gc.CollectionRecord) bool { return r.Conc != nil }); n != 0 {
		t.Fatalf("%d cycles completed despite a 1-word x 1-slice budget", n)
	}
}

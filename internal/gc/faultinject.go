package gc

import "math/rand"

// Fault injection and GC torture. A collector's recovery paths — emergency
// collections, heap growth, per-task faulting — are exactly the paths
// ordinary workloads never exercise. FaultPlan makes them exercisable on
// demand, deterministically: every decision derives from an allocation
// counter and a seeded PRNG, so a failing torture run replays exactly.
//
// The mutator consults the plan (FailAlloc, Torture) before each
// allocation. The outcome counters live in Telemetry.Resilience, next to
// the rest of the per-run GC accounting.

// FaultPlan configures deterministic allocation-failure injection and GC
// torture. The zero value injects nothing.
type FaultPlan struct {
	// FailNth fails the Nth mutator allocation (1-based) once.
	FailNth int64
	// FailEvery fails every Kth mutator allocation.
	FailEvery int64
	// FailProb fails each allocation with this probability, drawn from a
	// PRNG seeded with Seed (deterministic for a fixed seed).
	FailProb float64
	Seed     int64
	// Torture forces a collection before every allocation — the classic
	// GC-torture discipline: any root the compiler's frame maps miss dies
	// at the very next allocation instead of surviving by luck.
	Torture bool
	// RefillOnly restricts the failure knobs above to TLAB refill carves:
	// ordinary allocations neither fail nor consume a counter, so -fail-alloc
	// schedules target the refill path specifically (-fail-refills).
	RefillOnly bool

	allocs int64
	rng    *rand.Rand
}

// FailAlloc reports whether the current mutator allocation should fail.
// Callers consult it once per allocation attempt; injected failures are
// expected to trigger the same recovery ladder a genuine OOM would.
func (p *FaultPlan) FailAlloc() bool { return p.FailAllocAt(false) }

// FailAllocAt is FailAlloc with the attempt's refill-ness: refill is true
// when the allocation is about to carve a fresh TLAB chunk. A RefillOnly
// plan ignores non-refill attempts entirely — no failure, no counter
// consumed — so FailNth/FailEvery schedules count refills alone.
func (p *FaultPlan) FailAllocAt(refill bool) bool {
	if p.RefillOnly && !refill {
		return false
	}
	p.allocs++
	n := p.allocs
	if p.FailNth > 0 && n == p.FailNth {
		return true
	}
	if p.FailEvery > 0 && n%p.FailEvery == 0 {
		return true
	}
	if p.FailProb > 0 {
		if p.rng == nil {
			p.rng = rand.New(rand.NewSource(p.Seed))
		}
		return p.rng.Float64() < p.FailProb
	}
	return false
}

// Allocs returns how many allocation decisions the plan has made.
func (p *FaultPlan) Allocs() int64 { return p.allocs }

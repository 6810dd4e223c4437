// Package gcanal implements the paper's §5.1 analysis: which call sites can
// possibly trigger a garbage collection.
//
// Collection is initiated only by allocation. The set of functions that may
// allocate (directly, or by calling something that may) is the least
// fixpoint of
//
//	S⁰ = {functions containing an allocation site}
//	Sⁱ = Sⁱ⁻¹ ∪ {f | f direct-calls some g ∈ Sⁱ⁻¹ or closure-calls anything}
//
// Closure calls are treated conservatively (the callee is unknown; a
// higher-order refinement via closure analysis is possible but the paper
// leaves it to abstract interpretation). Direct-call sites whose callee is
// outside S need no gc_word and no frame map — the caller's frame can never
// be traced during that call.
package gcanal

import "tagfree/internal/ir"

// Result reports, per function, which call sites can trigger collection.
type Result struct {
	// CanGCFunc says whether a function may trigger a collection while it
	// (or anything it calls) is running.
	CanGCFunc map[*ir.Func]bool
	// Stats aggregates gc_word elision counts.
	Stats Stats
}

// Stats summarizes the analysis across the program (experiment E5).
type Stats struct {
	// Sites is the total number of call/allocation sites.
	Sites int
	// DirectCallSites is the number of direct-call sites.
	DirectCallSites int
	// ElidedSites is the number of direct-call sites proven unable to
	// trigger collection: their gc_words can be omitted entirely.
	ElidedSites int
	// ClosCallSites is the number of closure-call sites.
	ClosCallSites int
	// ElidedClosSites is the number of closure-call sites whose every
	// 0-CFA-resolved target cannot allocate (higher-order refinement only).
	ElidedClosSites int
}

// Analyze computes the fixpoint and updates every RCall's CanGC flag in
// place.
func Analyze(p *ir.Program) *Result {
	res := &Result{CanGCFunc: make(map[*ir.Func]bool, len(p.Funcs))}

	// Seed: functions with allocation or closure-call sites.
	for _, f := range p.Funcs {
		ir.WalkRhss(f, func(r ir.Rhs) bool {
			switch r.(type) {
			case *ir.RRef, *ir.RTuple, *ir.RCtor, *ir.RClosure, *ir.RCallClos:
				res.CanGCFunc[f] = true
				return false
			}
			return true
		})
	}

	// Propagate along direct call edges to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, f := range p.Funcs {
			if res.CanGCFunc[f] {
				continue
			}
			ir.WalkRhss(f, func(r ir.Rhs) bool {
				if call, ok := r.(*ir.RCall); ok && res.CanGCFunc[call.Callee] {
					res.CanGCFunc[f] = true
					changed = true
					return false
				}
				return true
			})
		}
	}

	// Refine call sites and collect statistics.
	for _, f := range p.Funcs {
		ir.WalkRhss(f, func(r ir.Rhs) bool {
			switch r := r.(type) {
			case *ir.RCall:
				res.Stats.Sites++
				res.Stats.DirectCallSites++
				r.CanGC = res.CanGCFunc[r.Callee]
				if !r.CanGC {
					res.Stats.ElidedSites++
				}
			case *ir.RCallClos:
				res.Stats.Sites++
				res.Stats.ClosCallSites++
			case *ir.RRef, *ir.RTuple, *ir.RCtor, *ir.RClosure:
				res.Stats.Sites++
			}
			return true
		})
	}
	return res
}

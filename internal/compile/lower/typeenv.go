package lower

import (
	"fmt"

	"tagfree/internal/ir"
	"tagfree/internal/mlang/types"
)

// ComputeTypeInfo is the second lowering pass. For every function it:
//
//  1. completes the type environment: beyond the function's own quantified
//     variables, any enclosing function's variables that appear in its slot,
//     capture or instantiation types are appended as environment variables;
//  2. computes derivation paths: for closure-called functions, each type
//     environment entry that occurs in the function's own arrow type can be
//     recovered at collection time from the call site's structured
//     type_gc_routine package (the paper's Figures 3 and 4); entries that
//     cannot (phantom variables) must be stored as type-rep words in the
//     closure at creation;
//  3. runs the rep fixpoint: a function needs a variable's type-rep at run
//     time when it creates a closure that stores that variable, or passes it
//     to a rep-needing direct callee. Top-level (direct-called) functions
//     receive needed reps as hidden trailing arguments; closures store them
//     in their environment. A *local polymorphic* function that would need a
//     rep for its own per-call type variable cannot obtain one without
//     universal runtime type passing — the completeness gap in the paper's
//     stack-only protocol — and is rejected with a diagnostic.
func ComputeTypeInfo(p *ir.Program) error {
	// Pass A: complete TypeEnv top-down (parents have smaller IDs, so a
	// parent's environment is complete when its children are visited).
	for _, f := range p.Funcs {
		var scanned []*types.Var
		scan := func(t types.Type) {
			if t != nil {
				scanned = quantVarsIn(t, scanned)
			}
		}
		for _, s := range f.Slots {
			scan(s.Type)
		}
		for _, c := range f.Captures {
			scan(c.Type)
		}
		scan(f.RetType)
		scanAtom := func(a ir.Atom) {
			if nc, ok := a.(*ir.ANullCtor); ok {
				for _, t := range nc.Inst {
					scan(t)
				}
			}
		}
		ir.WalkRhss(f, func(r ir.Rhs) bool {
			switch r := r.(type) {
			case *ir.RCall:
				for _, t := range r.Inst {
					scan(t)
				}
			case *ir.RCtor:
				for _, t := range r.Inst {
					scan(t)
				}
			case *ir.RCallClos:
				scan(r.SiteType)
			case *ir.RTuple:
				for _, t := range r.Types {
					scan(t)
				}
			}
			ir.WalkAtoms(r, scanAtom)
			return true
		})
		for _, v := range scanned {
			if f.TypeEnvIndex(v) >= 0 {
				continue
			}
			if f.Parent != nil && f.Parent.TypeEnvIndex(v) >= 0 {
				f.TypeEnv = append(f.TypeEnv, v)
			}
			// Otherwise not visible through the lexical chain: the variable
			// belongs to an inner polymorphic binding's scheme. Values typed
			// by it are parametric (they cannot carry pointers reachable only
			// through such positions), so the collector treats those
			// positions as opaque; nothing to record.
		}

		if len(f.TypeEnv) == 0 {
			f.TypeSource = ir.TypeSourceNone
		} else if f.HasEnv {
			f.TypeSource = ir.TypeSourceEnv
		} else {
			f.TypeSource = ir.TypeSourceCallSite
		}
	}

	// Pass B: derivation paths for closure-called functions.
	for _, f := range p.Funcs {
		if !f.HasEnv || len(f.TypeEnv) == 0 {
			continue
		}
		arrow := &types.Arrow{Dom: f.Slots[1].Type, Cod: f.RetType}
		f.TypeDerivs = make([]ir.TypePath, len(f.TypeEnv))
		for i, v := range f.TypeEnv {
			f.TypeDerivs[i] = ir.FindPath(arrow, v)
			if i < f.OwnVars && f.TypeDerivs[i] == nil {
				return fmt.Errorf(
					"internal: own type variable of %s does not occur in its arrow type", f.Name)
			}
		}
	}

	// Pass C: the rep fixpoint, over each function's RuntimeNeeded.
	for _, f := range p.Funcs {
		f.RuntimeNeeded = make([]bool, len(f.TypeEnv))
	}
	stored := func(g *ir.Func, i int) bool {
		if !g.HasEnv {
			return false
		}
		if g.TypeDerivs != nil && g.TypeDerivs[i] == nil {
			return true
		}
		return g.RuntimeNeeded[i]
	}
	need := func(f *ir.Func, v *types.Var) bool {
		idx := f.TypeEnvIndex(v)
		if idx < 0 {
			// Opaque (inner-poly) variable: its rep is the constant opaque
			// rep, available at compile time.
			return false
		}
		if !f.RuntimeNeeded[idx] {
			f.RuntimeNeeded[idx] = true
			return true
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, f := range p.Funcs {
			ir.WalkRhss(f, func(r ir.Rhs) bool {
				switch r := r.(type) {
				case *ir.RClosure:
					g := r.Target
					for i, v := range g.TypeEnv {
						if !stored(g, i) {
							continue
						}
						// The creation site materializes a rep for the very
						// variable (closure instantiation is the identity on
						// enclosing variables).
						if need(f, v) {
							changed = true
						}
					}
				case *ir.RCall:
					g := r.Callee
					for i := range g.TypeEnv {
						if !g.RuntimeNeeded[i] {
							continue
						}
						var t types.Type
						if i < len(r.Inst) {
							t = r.Inst[i]
						}
						if t == nil {
							continue
						}
						for _, v := range quantVarsIn(t, nil) {
							if need(f, v) {
								changed = true
							}
						}
					}
				}
				return true
			})
		}
	}

	// Finalize per-function rep layouts and detect the unobtainable case.
	for _, f := range p.Funcs {
		f.RepWord = make([]int, len(f.TypeEnv))
		for i := range f.RepWord {
			f.RepWord[i] = -1
		}
		if f.HasEnv {
			n := 0
			for i := range f.TypeEnv {
				if stored(f, i) {
					if i < f.OwnVars {
						return fmt.Errorf(
							"function %s: tag-free GC cannot supply a runtime type representation "+
								"for its own type variable (a local polymorphic function builds a "+
								"closure whose layout depends on a per-call type); bind the function "+
								"at top level or monomorphise the use — see DESIGN.md on the "+
								"completeness gap of stack-only type reconstruction", f.Name)
					}
					f.RepWord[i] = n
					n++
				}
			}
			f.NumRepWords = n
		} else {
			for _, needed := range f.RuntimeNeeded {
				if needed {
					f.NeedsReps = true
				}
			}
		}
	}
	return nil
}

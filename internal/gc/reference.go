package gc

import (
	"fmt"
	"slices"

	"tagfree/internal/code"
)

// The reference resolver: root finding written from the paper's Figures 2–4
// over the program's frame maps and a stopped stack alone — recursive, with
// none of taskJobs' plans, site cache, scratch arena or kernels — so that it
// can catch a root taskJobs omits or mistypes: the verifier holds the two to
// each other at every verified collection and walks this one's roots.

var constDesc = &code.TypeDesc{Kind: code.TDConst}

// refPkg is what a frame's routine hands the routine of the frame it called:
// the callee's type arguments at a direct call (Figure 3), the applied
// closure's type at a closure call (Figure 4).
type refPkg struct {
	direct []*code.TypeDesc
	arrow  *code.TypeDesc
}

// refRoot is one root of the reference: a stack index and the ground type
// its slot is traced as.
type refRoot struct {
	idx int
	typ *code.TypeDesc
}

// A root reads as its slot and type in a mismatch's message.
func (r refRoot) String() string { return fmt.Sprintf("slot %d as %v", r.idx, r.typ) }
func (j rootJob) String() string { return refRoot{j.idx, typeDesc(j.g)}.String() }

// referenceRoots lists one stopped task's roots, oldest frame first: frame
// resolves the frame at fp, blocked at pc, after every older one — a routine
// runs with the package its caller's routine built (Figure 2's oldest→newest
// pass) — and returns the package it builds for its callee. Under Appel a
// frame's roots are every slot its function has, live or not (§1.1.1).
func (v *verifier) referenceRoots(t TaskRoots) (roots []refRoot) {
	p := v.c.Prog
	var frame func(fp, pc int) refPkg
	frame = func(fp, pc int) refPkg {
		var in refPkg
		if caller := int(t.Stack[fp]); caller >= 0 {
			in = frame(caller, int(t.Stack[fp+1]))
		}
		// Figure 1: the gc_word sits beside the instruction the frame is
		// blocked at (the collection has just read it: siteAt panics on none).
		site := p.Sites[p.Code[pc+code.GCWordOffset(p.Code[pc])]]
		fi, base, entries := p.Funcs[site.Func], fp+2, site.Live
		if v.c.Strat == StratAppel {
			entries = fi.AllSlots
		}
		if t.AtCall && fp == t.FP { // the call's arguments are still the task's
			own := entries
			entries = slices.Clone(own)
			for _, a := range site.Args {
				if !hasSlot(own, a.Slot) {
					entries = append(entries, a)
				}
			}
		}
		targs := v.refTypeArgs(fi, in, entries, t.Stack[base])
		for _, e := range entries {
			roots = append(roots, refRoot{idx: base + e.Slot, typ: refSubst(e.Desc, targs)})
		}
		var out refPkg
		for _, d := range site.CalleeInst { // a direct call's only
			out.direct = append(out.direct, refSubst(d, targs))
		}
		if site.Kind == code.SiteCallC {
			out.arrow = refSubst(site.SiteType, targs)
		}
		return out
	}
	frame(t.FP, t.PC)
	return roots
}

// refTypeArgs is a frame's instantiation: its caller's package at a direct
// call, else from clos, the closure in slot 0 — its rep words, or the closure
// type's components (Figure 4) — which a frame may read only through its own
// map: a rep word read through a slot the map does not keep is a violation.
func (v *verifier) refTypeArgs(fi *code.FuncInfo, in refPkg, entries []code.SlotEntry, clos code.Word) []*code.TypeDesc {
	if fi.TypeSource == code.TypeSourceCallSite {
		return in.direct
	}
	h, targs := v.c.Heap, []*code.TypeDesc(nil)
	for i := 0; fi.TypeSource == code.TypeSourceEnv && i < fi.TypeEnvLen; i++ {
		switch {
		case fi.RepWord != nil && fi.RepWord[i] >= 0 && code.IsBoxedValue(h.Repr, clos):
			if !hasSlot(entries, 0) {
				v.errs = append(v.errs, fmt.Errorf("task %d: %s reads rep word %d of the closure in slot 0, which its frame map does not keep", v.task, fi.Name, i))
			}
			targs = append(targs, refRep(v.c.Prog, int(code.DecodeInt(h.Repr, h.Field(clos, 1+fi.RepWord[i])))))
		case fi.Derivs != nil && fi.Derivs[i] != nil && in.arrow != nil:
			targs = append(targs, refPath(in.arrow, fi.Derivs[i]))
		default:
			targs = append(targs, constDesc)
		}
	}
	return targs
}

// refRep reads a runtime type representation back as a descriptor.
func refRep(p *code.Program, h int) *code.TypeDesc {
	e := p.Reps.Entry(h)
	if e.Kind == code.TDConst || e.Kind == code.TDOpaque {
		return constDesc
	}
	d := &code.TypeDesc{Kind: e.Kind, Index: e.Index}
	for _, ch := range e.Children {
		d.Args = append(d.Args, refRep(p, ch))
	}
	return d
}

// refSubst grounds a frame-map descriptor in the frame's instantiation.
func refSubst(d *code.TypeDesc, env []*code.TypeDesc) *code.TypeDesc {
	switch {
	case d.Kind == code.TDVar && d.Index < len(env) && env[d.Index] != nil:
		return env[d.Index]
	case d.Kind == code.TDVar, d.Kind == code.TDConst, d.Kind == code.TDOpaque:
		return constDesc
	}
	out := &code.TypeDesc{Kind: d.Kind, Index: d.Index}
	for _, a := range d.Args {
		out.Args = append(out.Args, refSubst(a, env))
	}
	return out
}

// refPath follows a derivation path through a closure type's components.
func refPath(d *code.TypeDesc, steps []code.PathStep) *code.TypeDesc {
	for _, s := range steps {
		switch {
		case d.Kind == code.TDConst:
		case d.Kind == code.TDArrow && s.Kind == 0, d.Kind == code.TDRef:
			d = d.Args[0]
		case d.Kind == code.TDArrow:
			d = d.Args[1]
		default:
			d = d.Args[s.Index]
		}
	}
	return d
}

func hasSlot(es []code.SlotEntry, slot int) bool {
	return slices.ContainsFunc(es, func(e code.SlotEntry) bool { return e.Slot == slot })
}

// parts reads a routine as the descriptor node it traces: its kind, its
// layout id (a datatype's) and its components.
func parts(g TypeGC) (code.TDKind, int, []TypeGC) {
	switch g := g.(type) {
	case *refG:
		return code.TDRef, 0, []TypeGC{g.elem}
	case *tupleG:
		return code.TDTuple, 0, g.fields
	case *dataG:
		return code.TDData, g.layoutID, g.args
	case *arrowG:
		return code.TDArrow, 0, []TypeGC{g.dom, g.cod}
	}
	return code.TDConst, 0, nil
}

// sameType reports whether routine g traces exactly the ground type d.
func sameType(g TypeGC, d *code.TypeDesc) bool {
	kind, index, args := parts(g)
	return d.Kind == kind && (kind != code.TDData || d.Index == index) && slices.EqualFunc(args, d.Args, sameType)
}

// typeDesc reads a routine back as the ground descriptor it traces.
func typeDesc(g TypeGC) *code.TypeDesc {
	kind, index, args := parts(g)
	d := &code.TypeDesc{Kind: kind, Index: index}
	for _, a := range args {
		d.Args = append(d.Args, typeDesc(a))
	}
	return d
}

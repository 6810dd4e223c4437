package gc_test

import (
	"fmt"
	"slices"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/heap"
)

// The reference resolver: root finding written from the paper's Figures 2–4
// over the program's frame maps and a stopped stack alone — recursive, with
// none of the collector's plans, site cache, scratch arena or kernels. The
// collector and the verifier both ask taskJobs, so only a resolver that does
// not ask it can catch a root it omits or mistypes: TestReferenceResolver
// (roots_test.go) holds the two to each other at every collection.

var constDesc = &code.TypeDesc{Kind: code.TDConst}

// refPkg is what a frame's routine hands the routine of the frame it called:
// the callee's type arguments at a direct call (Figure 3), the applied
// closure's type at a closure call (Figure 4).
type refPkg struct {
	direct []*code.TypeDesc
	arrow  *code.TypeDesc
}

// referenceRoots lists one stopped task's roots, oldest frame first: frame
// resolves the frame at fp, blocked at pc, after every older one — a routine
// runs with the package its caller's routine built (Figure 2's oldest→newest
// pass) — and returns the package it builds for its callee.
func referenceRoots(p *code.Program, h *heap.Heap, t gc.TaskRoots) (roots []gc.ResolvedRoot, err error) {
	var frame func(fp, pc int) (refPkg, error)
	frame = func(fp, pc int) (refPkg, error) {
		var in refPkg
		if caller := int(t.Stack[fp]); caller >= 0 {
			if in, err = frame(caller, int(t.Stack[fp+1])); err != nil {
				return refPkg{}, err
			}
		}
		// Figure 1: the gc_word sits beside the instruction the frame is blocked at.
		off := code.GCWordOffset(p.Code[pc])
		if off < 0 || p.Code[pc+off] < 0 {
			return refPkg{}, fmt.Errorf("frame at %d: no gc_word at pc %d", fp, pc)
		}
		site := p.Sites[p.Code[pc+off]]
		fi, base, entries := p.Funcs[site.Func], fp+2, site.Live
		if t.AtCall && fp == t.FP { // the call's arguments are still the task's
			entries = slices.Clone(site.Live)
			for _, a := range site.Args {
				if !hasSlot(site.Live, a.Slot) {
					entries = append(entries, a)
				}
			}
		}
		targs, err := typeArgs(p, h, fi, in, entries, t.Stack[base])
		if err != nil {
			return refPkg{}, fmt.Errorf("frame at %d (%s): %v", fp, fi.Name, err)
		}
		for _, e := range entries {
			roots = append(roots, gc.ResolvedRoot{Idx: base + e.Slot, Type: subst(e.Desc, targs), Word: t.Stack[base+e.Slot]})
		}
		var out refPkg
		for _, d := range site.CalleeInst { // a direct call's only
			out.direct = append(out.direct, subst(d, targs))
		}
		if site.Kind == code.SiteCallC {
			out.arrow = subst(site.SiteType, targs)
		}
		return out, nil
	}
	_, err = frame(t.FP, t.PC)
	return roots, err
}

// typeArgs is a frame's instantiation: its caller's package at a direct call,
// else from clos, the closure in slot 0 — its rep words, or the closure type's
// components (Figure 4) — which a frame reads only through its own map.
func typeArgs(p *code.Program, h *heap.Heap, fi *code.FuncInfo, in refPkg, entries []code.SlotEntry, clos code.Word) ([]*code.TypeDesc, error) {
	if fi.TypeSource == code.TypeSourceCallSite {
		return in.direct, nil
	}
	var targs []*code.TypeDesc
	for i := 0; fi.TypeSource == code.TypeSourceEnv && i < fi.TypeEnvLen; i++ {
		switch {
		case fi.RepWord != nil && fi.RepWord[i] >= 0 && code.IsBoxedValue(h.Repr, clos):
			if !hasSlot(entries, 0) {
				return nil, fmt.Errorf("reads rep word %d of the closure in slot 0, which its frame map does not keep", i)
			}
			targs = append(targs, rep(p, int(code.DecodeInt(h.Repr, h.Field(clos, 1+fi.RepWord[i])))))
		case fi.Derivs != nil && fi.Derivs[i] != nil && in.arrow != nil:
			targs = append(targs, path(in.arrow, fi.Derivs[i]))
		default:
			targs = append(targs, constDesc)
		}
	}
	return targs, nil
}

// rep reads a runtime type representation back as a descriptor.
func rep(p *code.Program, h int) *code.TypeDesc {
	e := p.Reps.Entry(h)
	if e.Kind == code.TDConst || e.Kind == code.TDOpaque {
		return constDesc
	}
	d := &code.TypeDesc{Kind: e.Kind, Index: e.Index}
	for _, ch := range e.Children {
		d.Args = append(d.Args, rep(p, ch))
	}
	return d
}

// subst grounds a frame-map descriptor in the frame's instantiation.
func subst(d *code.TypeDesc, env []*code.TypeDesc) *code.TypeDesc {
	switch {
	case d.Kind == code.TDVar && d.Index < len(env) && env[d.Index] != nil:
		return env[d.Index]
	case d.Kind == code.TDVar, d.Kind == code.TDConst, d.Kind == code.TDOpaque:
		return constDesc
	}
	out := &code.TypeDesc{Kind: d.Kind, Index: d.Index}
	for _, a := range d.Args {
		out.Args = append(out.Args, subst(a, env))
	}
	return out
}

// path follows a derivation path through a closure type's components.
func path(d *code.TypeDesc, steps []code.PathStep) *code.TypeDesc {
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

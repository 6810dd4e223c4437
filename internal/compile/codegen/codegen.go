// Package codegen translates the IR into executable bytecode plus the GC
// metadata that makes tag-free collection work:
//
//   - every call and allocation instruction embeds a gc_word (a site-table
//     index) in the instruction stream, addressed off the return address —
//     the paper's Figure 1 mechanism;
//   - each site carries a frame map: the live, pointer-bearing slots with
//     hash-consed type descriptors (liveness per §5.2; gc_words for calls
//     that provably cannot collect are elided per §5.1);
//   - direct-call sites carry the callee's type-environment instantiation
//     and closure-call sites the applied closure's static type, which the
//     collectors use to pass type_gc_routines frame to frame (§3,
//     Figures 3–4);
//   - per-function metadata includes the closure layout (capture
//     descriptors, type-rep words) and the Appel-style trace-everything
//     descriptor used by the comparison collector.
//
// The same IR compiles to two value representations: tag-free (raw words,
// headerless objects) and tagged (bit-tagged integers, headered objects,
// tag-stripping arithmetic variants) — the baseline the paper argues
// against.
package codegen

import (
	"fmt"
	"sort"

	"tagfree/internal/code"
	"tagfree/internal/compile/liveness"
	"tagfree/internal/ir"
	"tagfree/internal/mlang/types"
)

// Compiler carries code generation state.
type Compiler struct {
	irp  *ir.Program
	repr code.Repr
	prog *code.Program

	// descs and argLists hash-cons type descriptors (see intern); argStack
	// holds the children of the descriptors being looked up.
	descs    map[descKey]*code.TypeDesc
	argLists map[argListKey]int
	argStack []*code.TypeDesc
	constIdx map[code.Word]int
	dataID   map[*types.Data]int
	// argWords is the buffer a call's operand words are encoded into.
	argWords []code.Word
	// slotDescs[f.ID][slot] is the descriptor of each of f's slots, computed
	// once with the function's metadata and read at every site.
	slotDescs [][]*code.TypeDesc
}

// descKey identifies a descriptor by value. Children are interned before
// their parent, so a child's pointer stands for the child; the argument list
// is itself hash-consed (argListKey) so that the key is comparable whatever
// the arity.
type descKey struct {
	kind  code.TDKind
	index int
	args  int // id of the argument list; 0 is the empty list
}

// argListKey identifies a non-empty argument list as a shorter list (by id)
// plus its last element.
type argListKey struct {
	front int
	last  *code.TypeDesc
}

// Compile translates an IR program for the given representation. The
// GC-possible analysis must already have refined RCall.CanGC flags.
func Compile(irp *ir.Program, repr code.Repr) (*code.Program, error) {
	c := &Compiler{
		irp:  irp,
		repr: repr,
		prog: &code.Program{
			Repr:    repr,
			Strings: irp.Strings,
			Reps:    code.NewRepTable(),
		},
		descs:     map[descKey]*code.TypeDesc{},
		argLists:  map[argListKey]int{},
		constIdx:  map[code.Word]int{},
		dataID:    map[*types.Data]int{},
		slotDescs: make([][]*code.TypeDesc, len(irp.Funcs)),
	}

	c.buildDataLayouts()

	// Create FuncInfo shells first so call instructions can reference any
	// function index — a function's ID: lowering numbers functions in the
	// order it appends them to the program.
	c.prog.Funcs = make([]*code.FuncInfo, len(irp.Funcs))
	for i, f := range irp.Funcs {
		c.prog.Funcs[i] = c.funcShell(f)
	}
	// The globals come before any function body: a constant operand's
	// encoding counts them (code.EncodeAtom).
	for _, g := range irp.Globals {
		c.prog.Globals = append(c.prog.Globals, code.GlobalInfo{
			Name: g.Name,
			Desc: c.descOf(g.Type, nil),
		})
	}
	c.prog.Code = make([]code.Word, 0, codeWordsHint(irp))
	for i, f := range irp.Funcs {
		c.emitFunc(f, c.prog.Funcs[i])
	}
	c.prog.InitFunc = irp.InitFunc.ID
	c.prog.MainFunc = -1
	if irp.MainFunc != nil {
		c.prog.MainFunc = irp.MainFunc.ID
	}
	c.prog.DescNodes = len(c.descs)
	code.Fuse(c.prog.Code)
	return c.prog, nil
}

// CompileWith is Compile; its third argument is ignored. It remains only
// because the repository benchmark (benchmark/layers.go) calls
// CompileWith(irp, repr, nil).
func CompileWith(irp *ir.Program, repr code.Repr, _ any) (*code.Program, error) {
	return Compile(irp, repr)
}

// ---------------------------------------------------------------------------
// Datatype layouts.
// ---------------------------------------------------------------------------

func (c *Compiler) buildDataLayouts() {
	names := make([]string, 0, len(c.irp.Datatypes))
	for name := range c.irp.Datatypes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c.dataID[c.irp.Datatypes[name]] = len(c.dataID)
		c.prog.Data = append(c.prog.Data, nil) // filled below
	}
	for _, name := range names {
		data := c.irp.Datatypes[name]
		layout := &code.DataLayout{
			Name:       data.Name,
			HasTagWord: data.BoxedCtors > 1,
		}
		for _, ci := range data.Ctors {
			if ci.IsNullary() {
				layout.NullaryNames = append(layout.NullaryNames, ci.Name)
				continue
			}
			cl := code.CtorLayout{Name: ci.Name}
			for _, ft := range ci.Args {
				cl.Fields = append(cl.Fields, c.descOf(ft, nil))
			}
			layout.Boxed = append(layout.Boxed, cl)
		}
		c.prog.Data[c.dataID[data]] = layout
	}
}

// ---------------------------------------------------------------------------
// Type descriptors.
// ---------------------------------------------------------------------------

// descOf converts a semantic type to a hash-consed descriptor. Type
// variables resolve against fn's type environment (TDVar); variables of
// datatype declarations (ParamRef, nil owner) become TDVar over the
// datatype's parameters; quantified variables not visible in fn are
// parametric positions and become TDOpaque.
func (c *Compiler) descOf(t types.Type, fn *ir.Func) *code.TypeDesc {
	base := len(c.argStack)
	switch t := types.Resolve(t).(type) {
	case *types.Base:
		return c.intern(code.TDConst, 0, base)
	case *types.Var:
		if t.Quant == nil {
			// A leftover free variable (should have been defaulted).
			return c.intern(code.TDOpaque, 0, base)
		}
		if t.Quant.Owner == nil {
			// Datatype parameter reference inside a constructor layout.
			return c.intern(code.TDVar, t.Quant.Index, base)
		}
		if fn != nil {
			if idx := fn.TypeEnvIndex(t); idx >= 0 {
				return c.intern(code.TDVar, idx, base)
			}
		}
		return c.intern(code.TDOpaque, 0, base)
	case *types.Arrow:
		c.pushArg(t.Dom, fn)
		c.pushArg(t.Cod, fn)
		return c.intern(code.TDArrow, 0, base)
	case *types.TupleT:
		for _, e := range t.Elems {
			c.pushArg(e, fn)
		}
		return c.intern(code.TDTuple, 0, base)
	case *types.Con:
		if t.Name == "ref" {
			c.pushArg(t.Args[0], fn)
			return c.intern(code.TDRef, 0, base)
		}
		for _, a := range t.Args {
			c.pushArg(a, fn)
		}
		return c.intern(code.TDData, c.dataID[t.Data], base)
	}
	panic("descOf: unreachable")
}

// pushArg leaves the descriptor of t on the argument stack.
func (c *Compiler) pushArg(t types.Type, fn *ir.Func) {
	d := c.descOf(t, fn)
	c.argStack = append(c.argStack, d)
}

// intern returns the one descriptor of the given kind and index whose
// children are argStack[base:], and pops them. It looks the key up before it
// allocates anything: a node and its Args slice are built only for a
// descriptor never seen before, so finding one of a program's few thousand
// unique descriptors costs no garbage however often it is asked for.
func (c *Compiler) intern(kind code.TDKind, index, base int) *code.TypeDesc {
	args := c.argStack[base:]
	c.argStack = c.argStack[:base]
	list := 0
	for _, a := range args {
		k := argListKey{front: list, last: a}
		id, ok := c.argLists[k]
		if !ok {
			id = len(c.argLists) + 1
			c.argLists[k] = id
		}
		list = id
	}
	key := descKey{kind: kind, index: index, args: list}
	if d, ok := c.descs[key]; ok {
		return d
	}
	d := &code.TypeDesc{Kind: kind, Index: index}
	if len(args) > 0 {
		d.Args = append([]*code.TypeDesc(nil), args...)
	}
	c.descs[key] = d
	return d
}

// ---------------------------------------------------------------------------
// Function metadata.
// ---------------------------------------------------------------------------

func (c *Compiler) funcShell(f *ir.Func) *code.FuncInfo {
	fi := &code.FuncInfo{
		Name:        f.Name,
		NParams:     f.NParams,
		HasEnv:      f.HasEnv,
		TypeEnvLen:  len(f.TypeEnv),
		OwnVars:     f.OwnVars,
		TypeSource:  code.TypeSource(f.TypeSource),
		RepWord:     f.RepWord,
		NumRepWords: f.NumRepWords,
		NumSites:    f.NumCallSites,
		RepArgBase:  len(f.Slots),
	}
	if f.NeedsReps {
		fi.RepArgPos = make([]int, len(f.TypeEnv))
		for i := range fi.RepArgPos {
			fi.RepArgPos[i] = -1
		}
		for i, needed := range f.RuntimeNeeded {
			if needed {
				fi.RepArgPos[i] = fi.NRepArgs
				fi.NRepArgs++
			}
		}
	}
	if f.TypeDerivs != nil {
		fi.Derivs = make([][]code.PathStep, len(f.TypeDerivs))
		for i, p := range f.TypeDerivs {
			if p == nil {
				continue
			}
			steps := make([]code.PathStep, len(p))
			for j, s := range p {
				steps[j] = code.PathStep{Kind: int(s.Kind), Index: s.Index}
			}
			fi.Derivs[i] = steps
		}
	}
	for _, cap := range f.Captures {
		fi.Captures = append(fi.Captures, c.descOf(cap.Type, f))
	}
	descs := make([]*code.TypeDesc, len(f.Slots))
	pointers := 0
	for i, s := range f.Slots {
		descs[i] = c.descOf(s.Type, f)
		if descs[i].MayHoldPointer() {
			pointers++
		}
	}
	c.slotDescs[f.ID] = descs
	if pointers > 0 {
		fi.AllSlots = make([]code.SlotEntry, 0, pointers)
		for i, d := range descs {
			if d.MayHoldPointer() {
				fi.AllSlots = append(fi.AllSlots, code.SlotEntry{Slot: f.Slots[i].Idx, Desc: d})
			}
		}
	}
	return fi
}

// ---------------------------------------------------------------------------
// Constants and atoms.
// ---------------------------------------------------------------------------

func (c *Compiler) constAtom(w code.Word) code.Word {
	idx, ok := c.constIdx[w]
	if !ok {
		idx = len(c.prog.Consts)
		c.prog.Consts = append(c.prog.Consts, w)
		c.constIdx[w] = idx
	}
	return c.encodeAtom(code.AtomConst, idx)
}

func (c *Compiler) encodeAtom(kind, idx int) code.Word {
	return code.EncodeAtom(kind, idx, len(c.prog.Globals))
}

func (c *Compiler) slotAtom(idx int) code.Word { return c.encodeAtom(code.AtomSlot, idx) }

func (c *Compiler) atom(a ir.Atom) code.Word {
	switch a := a.(type) {
	case *ir.AConst:
		switch a.Kind {
		case ir.ConstInt:
			return c.constAtom(code.EncodeInt(c.repr, a.Val))
		case ir.ConstBool:
			return c.constAtom(code.EncodeBool(c.repr, a.Val != 0))
		default:
			return c.constAtom(code.EncodeInt(c.repr, 0))
		}
	case *ir.ASlot:
		return c.slotAtom(a.Slot.Idx)
	case *ir.AGlobal:
		return c.encodeAtom(code.AtomGlobal, a.Global.Idx)
	case *ir.ANullCtor:
		return c.constAtom(code.EncodeNullCtor(c.repr, a.Ctor.Tag))
	case *ir.AStr:
		return c.constAtom(code.EncodeInt(c.repr, int64(a.Index)))
	}
	panic("atom: unreachable")
}

// ---------------------------------------------------------------------------
// Function body emission.
// ---------------------------------------------------------------------------

type joinTarget struct {
	dst  int // destination slot, -1 for none
	cont *label
}

type label struct {
	pos    int
	bound  bool
	fixups []int
}

type femit struct {
	c  *Compiler
	f  *ir.Func
	fi *code.FuncInfo
	// live[site] is the §5.2 frame map of each of f's sites; slotDesc[slot]
	// the descriptor of each of its slots.
	live     [][]*ir.Slot
	slotDesc []*code.TypeDesc
	scratchN int
}

func (fe *femit) emit(ws ...code.Word) {
	fe.c.prog.Code = append(fe.c.prog.Code, ws...)
}

// emitAtoms appends the operand word of each atom.
func (fe *femit) emitAtoms(as []ir.Atom) {
	for _, a := range as {
		fe.emit(fe.c.atom(a))
	}
}

func (fe *femit) newLabel() *label { return &label{} }

func (fe *femit) ref(l *label) code.Word {
	if l.bound {
		return code.Word(l.pos)
	}
	l.fixups = append(l.fixups, len(fe.c.prog.Code))
	return -1
}

// emitRef emits a placeholder word for a label reference. It must be called
// exactly when the operand word is appended.
func (fe *femit) jmp(l *label) {
	fe.emit(code.OpJmp)
	fe.emit(fe.ref(l))
}

func (fe *femit) jz(a code.Word, l *label) {
	fe.emit(code.OpJz, a)
	fe.emit(fe.ref(l))
}

func (fe *femit) bind(l *label) {
	l.pos = len(fe.c.prog.Code)
	l.bound = true
	for _, at := range l.fixups {
		fe.c.prog.Code[at] = code.Word(l.pos)
	}
}

func (fe *femit) scratch() int {
	s := fe.fi.RepArgBase + fe.fi.NRepArgs + fe.scratchN
	fe.scratchN++
	return s
}

// noteStore records the static type of a heap store's value in
// Program.StoreDescs (keyed by the OpStFld's pc, which is final at emit
// time: labels patch operand words, never instruction positions). The
// generational write barrier uses the descriptor to type old→young
// remembered-set entries. Values that can never be heap pointers
// (constants, nullary constructors, strings) get no entry.
func (fe *femit) noteStore(pc int, a ir.Atom) {
	var d *code.TypeDesc
	switch a := a.(type) {
	case *ir.ASlot:
		d = fe.slotDesc[a.Slot.Idx]
	case *ir.AGlobal:
		d = fe.c.descOf(a.Global.Type, fe.f)
	default:
		return
	}
	if !d.MayHoldPointer() {
		return
	}
	if fe.c.prog.StoreDescs == nil {
		fe.c.prog.StoreDescs = map[int]*code.TypeDesc{}
	}
	fe.c.prog.StoreDescs[pc] = d
}

// codeWordsHint estimates the length of the program's code from the size of
// its IR, so that emit appends into one reservation instead of growing the
// code through a series of copies: four words beside its operands for a
// computation (opcode, destination, and a gc_word, count or immediate or
// two), three for a control node. On the committed corpus that is 7-10 %
// above the code emitted; a short estimate would only cost a regrowth.
func codeWordsHint(irp *ir.Program) int {
	n := 0
	for _, f := range irp.Funcs {
		ir.WalkExprs(f.Body, func(e ir.Expr) {
			n += 3
			if let, ok := e.(*ir.ELet); ok {
				n++
				ir.WalkAtoms(let.Rhs, func(ir.Atom) { n++ })
			}
		})
	}
	return n
}

func (c *Compiler) emitFunc(f *ir.Func, fi *code.FuncInfo) {
	fe := &femit{c: c, f: f, fi: fi, live: liveness.Analyze(f), slotDesc: c.slotDescs[f.ID]}
	fi.Entry = len(c.prog.Code)
	fe.emitExpr(f.Body, nil)
	fi.NSlots = fi.RepArgBase + fi.NRepArgs + fe.scratchN
}

func (fe *femit) emitExpr(e ir.Expr, jt *joinTarget) {
	switch e := e.(type) {
	case *ir.ERet:
		fe.emit(code.OpRet, fe.c.atom(e.A))

	case *ir.EJoin:
		if jt == nil {
			panic("emitExpr: join without target in " + fe.f.Name)
		}
		if jt.dst >= 0 {
			fe.emit(code.OpMove, code.Word(jt.dst), fe.c.atom(e.A))
		}
		fe.jmp(jt.cont)

	case *ir.EMatchFail:
		fe.emit(code.OpMatchFail)

	case *ir.ELet:
		fe.emitRhs(e.Dst, e.Rhs)
		fe.emitExpr(e.Cont, jt)

	case *ir.ECond:
		condA := fe.c.atom(e.Cond)
		if e.Dst == nil && e.Cont == nil {
			// Inherit the enclosing join target.
			elseL := fe.newLabel()
			fe.jz(condA, elseL)
			fe.emitExpr(e.Then, jt)
			fe.bind(elseL)
			fe.emitExpr(e.Else, jt)
			return
		}
		contL := fe.newLabel()
		inner := &joinTarget{dst: -1, cont: contL}
		if e.Dst != nil {
			inner.dst = e.Dst.Idx
		}
		elseL := fe.newLabel()
		fe.jz(condA, elseL)
		fe.emitExpr(e.Then, inner)
		fe.bind(elseL)
		fe.emitExpr(e.Else, inner)
		fe.bind(contL)
		fe.emitExpr(e.Cont, jt)
	}
}

// primOp maps an IR primitive to an opcode under the representation.
func (fe *femit) primOp(op ir.PrimOp) code.Op {
	tagged := fe.c.repr == code.ReprTagged
	switch op {
	case ir.PAdd:
		if tagged {
			return code.OpTAdd
		}
		return code.OpAdd
	case ir.PSub:
		if tagged {
			return code.OpTSub
		}
		return code.OpSub
	case ir.PMul:
		if tagged {
			return code.OpTMul
		}
		return code.OpMul
	case ir.PDiv:
		if tagged {
			return code.OpTDiv
		}
		return code.OpDiv
	case ir.PMod:
		if tagged {
			return code.OpTMod
		}
		return code.OpMod
	case ir.PNeg:
		if tagged {
			return code.OpTNeg
		}
		return code.OpNeg
	case ir.PEq:
		return code.OpEq
	case ir.PNe:
		return code.OpNe
	case ir.PLt:
		return code.OpLt
	case ir.PLe:
		return code.OpLe
	case ir.PGt:
		return code.OpGt
	case ir.PGe:
		return code.OpGe
	case ir.PNot:
		return code.OpNot
	case ir.PIsBoxed:
		return code.OpIsBoxed
	}
	panic("primOp: unmapped primitive")
}

func (fe *femit) emitRhs(dst *ir.Slot, r ir.Rhs) {
	d := code.Word(dst.Idx)
	c := fe.c
	switch r := r.(type) {
	case *ir.RAtom:
		fe.emit(code.OpMove, d, c.atom(r.A))

	case *ir.RPrim:
		if r.Op == ir.PTagIs {
			tag := r.Args[1].(*ir.AConst).Val
			fe.emit(code.OpTagIs, d, c.atom(r.Args[0]), code.Word(tag))
			return
		}
		op := fe.primOp(r.Op)
		switch len(r.Args) {
		case 1:
			fe.emit(op, d, c.atom(r.Args[0]))
		case 2:
			fe.emit(op, d, c.atom(r.Args[0]), c.atom(r.Args[1]))
		default:
			panic("emitRhs: bad primitive arity")
		}

	case *ir.RRef:
		gcw := fe.site(r.Site, code.SiteAlloc, nil, nil)
		fe.emit(code.OpMkRef, d, gcw, c.atom(r.Init))

	case *ir.RDeref:
		fe.emit(code.OpLdFld, d, c.atom(r.Ref), 0)

	case *ir.RAssign:
		fe.noteStore(len(c.prog.Code), r.Val)
		fe.emit(code.OpStFld, c.atom(r.Ref), 0, c.atom(r.Val))
		fe.emit(code.OpMove, d, c.atom(&ir.AConst{Kind: ir.ConstUnit}))

	case *ir.RTuple:
		gcw := fe.site(r.Site, code.SiteAlloc, nil, nil)
		fe.emit(code.OpMkTuple, d, gcw, code.Word(len(r.Elems)))
		fe.emitAtoms(r.Elems)

	case *ir.RCtor:
		layout := c.prog.Data[c.dataID[r.Ctor.Data]]
		tag := code.Word(-1)
		if layout.HasTagWord {
			tag = code.Word(r.Ctor.Tag)
		}
		gcw := fe.site(r.Site, code.SiteAlloc, nil, nil)
		fe.emit(code.OpMkBox, d, gcw, tag, code.Word(len(r.Args)))
		fe.emitAtoms(r.Args)

	case *ir.RField:
		off := r.Index
		switch {
		case r.FromCapture:
			off += 1 + fe.f.NumRepWords
		case r.FromCtor != nil:
			if c.prog.Data[c.dataID[r.FromCtor.Data]].HasTagWord {
				off++
			}
		}
		fe.emit(code.OpLdFld, d, c.atom(r.Obj), code.Word(off))

	case *ir.RClosure:
		target := r.Target
		tidx := target.ID
		// Rep words, in closure layout order.
		var repAtoms []code.Word
		for i, v := range target.TypeEnv {
			if target.RepWord == nil || target.RepWord[i] < 0 {
				continue
			}
			repAtoms = append(repAtoms, fe.repAtom(v))
		}
		gcw := fe.site(r.Site, code.SiteAlloc, nil, nil)
		fe.emit(code.OpMkClos, d, gcw, code.Word(tidx),
			code.Word(r.SelfCapture), code.Word(len(repAtoms)), code.Word(len(r.Captures)))
		fe.emit(repAtoms...)
		fe.emitAtoms(r.Captures)

	case *ir.RCall:
		callee := r.Callee
		cidx := callee.ID
		// The operands are encoded before the call's own words: a hidden
		// type-rep argument may emit the instructions that build it, and the
		// constant pool is numbered in the order operands are first seen.
		args := fe.c.argWords[:0]
		for _, a := range r.Args {
			args = append(args, c.atom(a))
		}
		// Hidden type-rep arguments for rep-needing callees.
		if callee.NeedsReps {
			for i, needed := range callee.RuntimeNeeded {
				if !needed {
					continue
				}
				args = append(args, fe.repAtom(r.Inst[i]))
			}
		}
		fe.c.argWords = args
		gcw := code.Word(-1)
		if r.CanGC {
			var inst []*code.TypeDesc
			for _, t := range r.Inst {
				inst = append(inst, c.descOf(t, fe.f))
			}
			gcw = fe.siteCall(r.Site, cidx, inst)
			fe.addSiteArgs(gcw, r.Args)
		}
		fe.emit(code.OpCall, d, code.Word(cidx), gcw, code.Word(len(args)))
		fe.emit(args...)

	case *ir.RCallClos:
		gcw := code.Word(-1)
		if r.CanGC {
			gcw = fe.site(r.Site, code.SiteCallC, nil, c.descOf(r.SiteType, fe.f))
			fe.addSiteArgs(gcw, []ir.Atom{r.Clos, r.Arg})
		}
		fe.emit(code.OpCallC, d, gcw, c.atom(r.Clos), c.atom(r.Arg))

	case *ir.RBuiltin:
		id, ok := code.BuiltinIDByName[r.Name]
		if !ok {
			panic("emitRhs: unknown builtin " + r.Name)
		}
		fe.emit(code.OpBuiltin, d, id, c.atom(r.Args[0]))

	case *ir.RSetGlobal:
		fe.emit(code.OpSetGlobal, code.Word(r.Global.Idx), c.atom(r.Val))
		fe.emit(code.OpMove, d, c.atom(&ir.AConst{Kind: ir.ConstUnit}))

	case *ir.RPatchCapture:
		off := 1 + r.Target.NumRepWords + r.Index
		fe.noteStore(len(c.prog.Code), r.Val)
		fe.emit(code.OpStFld, c.atom(r.Clos), code.Word(off), c.atom(r.Val))
		fe.emit(code.OpMove, d, c.atom(&ir.AConst{Kind: ir.ConstUnit}))

	default:
		panic("emitRhs: unhandled rhs")
	}
}

// ---------------------------------------------------------------------------
// Sites.
// ---------------------------------------------------------------------------

// site registers GC metadata for a call/alloc site and returns its gc_word.
func (fe *femit) site(irSite int, kind code.SiteKind, calleeInst []*code.TypeDesc, siteType *code.TypeDesc) code.Word {
	si := &code.SiteInfo{
		Func:     fe.f.ID,
		Kind:     kind,
		SiteType: siteType,
	}
	for _, s := range fe.live[irSite] {
		d := fe.slotDesc[s.Idx]
		if !d.MayHoldPointer() {
			continue
		}
		si.Live = append(si.Live, code.SlotEntry{Slot: s.Idx, Desc: d})
	}
	idx := len(fe.c.prog.Sites)
	fe.c.prog.Sites = append(fe.c.prog.Sites, si)
	_ = calleeInst
	return code.Word(idx)
}

func (fe *femit) siteCall(irSite, calleeIdx int, inst []*code.TypeDesc) code.Word {
	gcw := fe.site(irSite, code.SiteCall, nil, nil)
	si := fe.c.prog.Sites[gcw]
	si.Callee = calleeIdx
	si.CalleeInst = inst
	return gcw
}

// addSiteArgs records the call's pointer-bearing slot operands, the extra
// roots a task suspended before the call contributes (tasking, §4).
func (fe *femit) addSiteArgs(gcw code.Word, args []ir.Atom) {
	si := fe.c.prog.Sites[gcw]
	for _, a := range args {
		s, ok := a.(*ir.ASlot)
		if !ok {
			continue
		}
		d := fe.slotDesc[s.Slot.Idx]
		if !d.MayHoldPointer() {
			continue
		}
		si.Args = append(si.Args, code.SlotEntry{Slot: s.Slot.Idx, Desc: d})
	}
}

// ---------------------------------------------------------------------------
// Runtime type representations.
// ---------------------------------------------------------------------------

// repAtom returns an atom holding the rep handle for type t at run time,
// emitting construction instructions as needed.
func (fe *femit) repAtom(t types.Type) code.Word {
	c := fe.c
	switch t := types.Resolve(t).(type) {
	case *types.Var:
		if t.Quant == nil || t.Quant.Owner == nil {
			return fe.groundRepAtom(code.TDOpaque, 0, nil)
		}
		idx := fe.f.TypeEnvIndex(t)
		if idx < 0 {
			return fe.groundRepAtom(code.TDOpaque, 0, nil)
		}
		// The variable's rep comes from a hidden argument (direct-called
		// functions) or the closure's rep word (closure-called functions).
		if fe.f.HasEnv {
			if fe.f.RepWord == nil || fe.f.RepWord[idx] < 0 {
				panic(fmt.Sprintf("repAtom: %s: no runtime rep for type variable %d", fe.f.Name, idx))
			}
			s := fe.scratch()
			fe.emit(code.OpLdFld, code.Word(s),
				c.slotAtom(0), code.Word(1+fe.f.RepWord[idx]))
			return c.slotAtom(s)
		}
		pos := -1
		if fe.fi.RepArgPos != nil {
			pos = fe.fi.RepArgPos[idx]
		}
		if pos < 0 {
			panic(fmt.Sprintf("repAtom: %s: type variable %d not passed as hidden argument", fe.f.Name, idx))
		}
		return c.slotAtom(fe.fi.RepArgBase + pos)

	case *types.Base:
		return fe.groundRepAtom(code.TDConst, 0, nil)

	case *types.Arrow:
		return fe.compositeRep(code.TDArrow, 0, []types.Type{t.Dom, t.Cod})
	case *types.TupleT:
		return fe.compositeRep(code.TDTuple, 0, t.Elems)
	case *types.Con:
		if t.Name == "ref" {
			return fe.compositeRep(code.TDRef, 0, t.Args)
		}
		return fe.compositeRep(code.TDData, c.dataID[t.Data], t.Args)
	}
	panic("repAtom: unreachable")
}

// compositeRep builds a rep with children; when every child is a
// compile-time constant the whole rep is interned at compile time.
func (fe *femit) compositeRep(kind code.TDKind, index int, children []types.Type) code.Word {
	atoms := make([]code.Word, len(children))
	handles := make([]int, len(children))
	allConst := true
	for i, ch := range children {
		atoms[i] = fe.repAtom(ch)
		if k, ci := code.DecodeAtom(atoms[i], len(fe.c.prog.Globals)); k != code.AtomConst {
			allConst = false
		} else {
			handles[i] = int(code.DecodeInt(fe.c.repr, fe.c.prog.Consts[ci]))
		}
	}
	if allConst {
		return fe.groundRepAtom(kind, index, handles)
	}
	s := fe.scratch()
	ws := []code.Word{code.OpMkRep, code.Word(s), code.Word(kind), code.Word(index),
		code.Word(len(atoms))}
	ws = append(ws, atoms...)
	fe.emit(ws...)
	return fe.c.slotAtom(s)
}

func (fe *femit) groundRepAtom(kind code.TDKind, index int, children []int) code.Word {
	h := fe.c.prog.Reps.Intern(kind, index, children)
	return fe.c.constAtom(code.EncodeInt(fe.c.repr, int64(h)))
}

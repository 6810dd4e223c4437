// Package lower translates type-checked MinML programs into the IR.
//
// Lowering performs, in one pass:
//
//   - A-normalization: every intermediate value is bound to a typed slot.
//   - Closure conversion: lambdas are lifted to top-level IR functions that
//     receive their environment as slot 0 and reach captured values through
//     explicit field loads. Closure values are unary (curried); direct
//     calls to known top-level functions use their full arity.
//   - Pattern-match compilation to conditional trees over representation
//     tests (nullary-constant equality, boxedness, discriminant checks).
//   - Eta-expansion of function and builtin values: a known function used
//     as a value becomes a freshly lifted wrapper closure.
//   - Type-environment bookkeeping: each function records the quantified
//     type variables its types mention, and every call and closure-creation
//     site records the instantiation of its callee's type environment —
//     the data Goldberg's parameterized frame_gc_routines pass during
//     collection (§3 of the paper).
//
// A second pass (typeenv.go) computes type-variable derivation paths,
// type-rep storage layouts, and the rep-passing fixpoint.
package lower

import (
	"fmt"
	"strconv"

	"tagfree/internal/ir"
	"tagfree/internal/mlang/ast"
	"tagfree/internal/mlang/token"
	"tagfree/internal/mlang/types"
)

// Error is a lowering error (a program construct the tag-free compilation
// scheme cannot support, or an internal invariant violation).
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: lowering error: %s", e.Pos, e.Msg) }

// Lowerer drives the translation.
type Lowerer struct {
	info    *types.Info
	prog    *ir.Program
	strPool map[string]int
	// tmpNames[n] is "t<n>": every function numbers its temporaries from 0,
	// so the names are spelled once and shared.
	tmpNames []string
	// slab is what is left of the chunk newSlot carves slots from.
	slab   []ir.Slot
	nextID int
	// top maps top-level names to bindings visible everywhere below them.
	top *scope
	// initEm accumulates the init function's body statements.
	initEm *emitter
}

// Lower translates a checked program into IR.
func Lower(prog *ast.Program, info *types.Info) (p *ir.Program, err error) {
	l := &Lowerer{
		info: info,
		prog: &ir.Program{
			Datatypes: info.Datatypes,
		},
		strPool: map[string]int{},
	}
	defer func() {
		if r := recover(); r != nil {
			if le, ok := r.(*Error); ok {
				p, err = nil, le
				return
			}
			panic(r)
		}
	}()

	l.lowerProgram(prog)
	if err := ComputeTypeInfo(l.prog); err != nil {
		return nil, err
	}
	return l.prog, nil
}

func (l *Lowerer) errf(pos token.Pos, format string, args ...any) {
	panic(&Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lowerer) newFunc(name string) *ir.Func {
	f := &ir.Func{ID: l.nextID, Name: name}
	l.nextID++
	l.prog.Funcs = append(l.prog.Funcs, f)
	return f
}

func (l *Lowerer) tmpName(n int) string {
	for len(l.tmpNames) <= n {
		l.tmpNames = append(l.tmpNames, "t"+strconv.Itoa(len(l.tmpNames)))
	}
	return l.tmpNames[n]
}

func (l *Lowerer) internString(s string) int {
	if i, ok := l.strPool[s]; ok {
		return i
	}
	i := len(l.prog.Strings)
	l.prog.Strings = append(l.prog.Strings, s)
	l.strPool[s] = i
	return i
}

// ---------------------------------------------------------------------------
// Emitter: builds ELet/ECond chains with an explicit continuation hole.
// ---------------------------------------------------------------------------

type emitter struct {
	head ir.Expr
	hole *ir.Expr
}

func newEmitter() *emitter {
	e := &emitter{}
	e.hole = &e.head
	return e
}

func (e *emitter) let(dst *ir.Slot, rhs ir.Rhs) {
	n := &ir.ELet{Dst: dst, Rhs: rhs}
	*e.hole = n
	e.hole = &n.Cont
}

func (e *emitter) cond(dst *ir.Slot, cond ir.Atom, thn, els ir.Expr) {
	n := &ir.ECond{Cond: cond, Dst: dst, Then: thn, Else: els}
	*e.hole = n
	e.hole = &n.Cont
}

func (e *emitter) finish(last ir.Expr) ir.Expr {
	*e.hole = last
	return e.head
}

// ---------------------------------------------------------------------------
// Per-function lowering context.
// ---------------------------------------------------------------------------

type fctx struct {
	l     *Lowerer
	fn    *ir.Func
	scope *scope
	tmpN  int
}

// slabSlots is the length of a chunk of the slab slots are carved from: 85
// slots of 48 bytes and the allocator's 8-byte header fill a 4 KB size class
// (64 slots would round up to the 3 200-byte class, 4 % of the chunk unused).
const slabSlots = 85

// newSlot adds a slot to the function. Slots come from a slab, so that a
// program's slots cost one allocation per slabSlots rather than one each. The
// slab is the lowering's, not the function's: most functions have few slots,
// and a chunk each would leave most of it unused.
func (c *fctx) newSlot(name string, t types.Type) *ir.Slot {
	if name == "" {
		name = c.l.tmpName(c.tmpN)
		c.tmpN++
	}
	if len(c.l.slab) == 0 {
		c.l.slab = make([]ir.Slot, slabSlots)
	}
	s := &c.l.slab[0]
	c.l.slab = c.l.slab[1:]
	*s = ir.Slot{Idx: len(c.fn.Slots), Name: name, Type: t}
	c.fn.Slots = append(c.fn.Slots, s)
	return s
}

func (c *fctx) newSite() int {
	s := c.fn.NumCallSites
	c.fn.NumCallSites++
	return s
}

func (c *fctx) errf(pos token.Pos, format string, args ...any) {
	c.l.errf(pos, format, args...)
}

// typeOf returns the checker's type for an expression.
func (c *fctx) typeOf(e ast.Expr) types.Type {
	t := c.l.info.ExprType(e)
	if t == nil {
		c.errf(e.Pos(), "internal: no type recorded for expression")
	}
	return t
}

// ---------------------------------------------------------------------------
// Program structure.
// ---------------------------------------------------------------------------

func (l *Lowerer) lowerProgram(prog *ast.Program) {
	initFn := l.newFunc("$init")
	initFn.RetType = types.Unit
	initCtx := &fctx{l: l, fn: initFn}
	l.initEm = newEmitter()

	for _, name := range types.BuiltinNames {
		l.top = l.top.bind(name, &builtinBinding{name: name, typ: builtinType(name)})
	}

	for _, d := range prog.Decls {
		vd, ok := d.(*ast.ValDecl)
		if !ok {
			continue
		}
		l.lowerTopDecl(vd, initCtx)
	}
	initFn.Body = l.initEm.finish(&ir.ERet{A: unitAtom()})
	l.prog.InitFunc = initFn

	// main is optional (tasking programs name their entries explicitly);
	// when present it must be a function.
	if mb, ok := l.top.lookup("main"); ok {
		fb, isFn := mb.(*funcBinding)
		if !isFn {
			l.errf(token.Pos{Line: 1, Col: 1}, "main must be a function of type unit -> ...")
		}
		l.prog.MainFunc = fb.fn
	}
}

func unitAtom() ir.Atom { return &ir.AConst{Kind: ir.ConstUnit} }

// builtinType gives the type of a runtime builtin.
func builtinType(name string) types.Type {
	switch name {
	case "print_int":
		return &types.Arrow{Dom: types.Int, Cod: types.Unit}
	case "print_bool":
		return &types.Arrow{Dom: types.Bool, Cod: types.Unit}
	case "print_string":
		return &types.Arrow{Dom: types.String, Cod: types.Unit}
	case "print_newline":
		return &types.Arrow{Dom: types.Unit, Cod: types.Unit}
	}
	panic("builtinType: unknown builtin " + name)
}

// lowerTopDecl lowers one top-level let declaration.
func (l *Lowerer) lowerTopDecl(vd *ast.ValDecl, initCtx *fctx) {
	// Classify: function bindings (lambda RHS or alias-of-function RHS)
	// become IR functions; everything else becomes a global initialized in
	// the init function.
	if vd.Rec {
		for _, b := range vd.Binds {
			if _, isLam := b.Expr.(*ast.Lam); !isLam {
				l.errf(b.P, "let rec supports only function bindings")
			}
		}
		// Pre-declare (with arities) so the bodies can call each other
		// directly at full arity.
		fns := make([]*ir.Func, len(vd.Binds))
		for i, b := range vd.Binds {
			fns[i] = l.newFunc(b.Name)
			params, _ := collectParams(b.Expr.(*ast.Lam))
			fns[i].NParams = len(params)
			scheme := l.info.Scheme(b.Expr)
			l.top = l.top.bind(b.Name, &funcBinding{fn: fns[i], scheme: scheme})
		}
		for i, b := range vd.Binds {
			l.lowerTopFunc(fns[i], b.Expr.(*ast.Lam), l.info.Scheme(b.Expr))
		}
		return
	}

	for _, b := range vd.Binds {
		scheme := l.info.Scheme(b.Expr)
		switch rhs := b.Expr.(type) {
		case *ast.Lam:
			fn := l.newFunc(b.Name)
			l.lowerTopFunc(fn, rhs, scheme)
			l.top = l.top.bind(b.Name, &funcBinding{fn: fn, scheme: scheme})
			continue
		case *ast.Var:
			// Alias of a known function: record the composition so direct
			// calls through the alias stay direct.
			if tb, ok := l.top.lookup(rhs.Name); ok {
				if fb, ok := tb.(*funcBinding); ok {
					inst := l.composeAliasInst(fb, rhs)
					l.top = l.top.bind(b.Name, &funcBinding{fn: fb.fn, scheme: scheme, inst: inst})
					continue
				}
			}
		}
		// Plain global.
		g := &ir.Global{Idx: len(l.prog.Globals), Name: b.Name, Type: scheme.Body}
		initCtx.scope = l.top
		a := initCtx.lowerExpr(b.Expr, l.initEm)
		if b.Name == "_" {
			// Evaluated for effect only; no global storage needed.
			continue
		}
		l.prog.Globals = append(l.prog.Globals, g)
		l.initEm.let(initCtx.newSlot("", types.Unit), &ir.RSetGlobal{Global: g, Val: a})
		l.top = l.top.bind(b.Name, &globalBinding{global: g})
	}
}

// composeAliasInst computes, for an alias binding `let h = f`, the types
// (over h's quantified variables) at which f's type variables are
// instantiated.
func (l *Lowerer) composeAliasInst(fb *funcBinding, occ *ast.Var) []types.Type {
	occInst := l.info.Inst(occ) // f's (or previous alias's) vars, in order
	if fb.inst == nil {
		return occInst
	}
	// fb.inst maps the ultimate target's vars over fb's scheme vars; those
	// are instantiated by occInst here.
	sch := l.info.VarScheme(occ)
	out := make([]types.Type, len(fb.inst))
	for i, t := range fb.inst {
		if sch != nil && sch.Group != nil {
			out[i] = types.SubstGroup(t, sch.Group, occInst)
		} else {
			out[i] = t
		}
	}
	return out
}

// collectParams walks a direct lambda chain, returning parameters and the
// innermost body.
func collectParams(lam *ast.Lam) (params []*ast.Lam, body ast.Expr) {
	n := 1
	for l, ok := lam.Body.(*ast.Lam); ok; l, ok = l.Body.(*ast.Lam) {
		n++
	}
	params = make([]*ast.Lam, n)
	for i := range params {
		params[i] = lam
		body = lam.Body
		lam, _ = body.(*ast.Lam)
	}
	return params, body
}

// lowerTopFunc lowers a top-level function binding into fn (direct-called,
// no environment slot).
func (l *Lowerer) lowerTopFunc(fn *ir.Func, lam *ast.Lam, scheme *types.Scheme) {
	params, body := collectParams(lam)
	c := &fctx{l: l, fn: fn, scope: l.top}
	for _, p := range params {
		arrow, ok := types.Resolve(l.info.ExprType(p)).(*types.Arrow)
		if !ok {
			l.errf(p.P, "internal: lambda without arrow type")
		}
		slot := c.newSlot(p.Param, arrow.Dom)
		if p.Param != "_" {
			c.scope = c.scope.bind(p.Param, bindSlot(slot))
		}
	}
	fn.NParams = len(params)
	fn.RetType = c.typeOf(body)
	if scheme != nil && scheme.Group != nil {
		fn.TypeEnv = append(fn.TypeEnv, scheme.Group.Vars...)
		fn.OwnVars = len(fn.TypeEnv)
		fn.TypeSource = ir.TypeSourceCallSite
	}
	em := newEmitter()
	res := c.lowerExpr(body, em)
	fn.Body = em.finish(&ir.ERet{A: res})
}

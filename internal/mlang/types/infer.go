package types

import (
	"fmt"

	"tagfree/internal/mlang/ast"
	"tagfree/internal/mlang/token"
)

// Error is a type error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: type error: %s", e.Pos, e.Msg) }

// Info is the result of type checking: everything later compiler stages
// need. What is known about a node is read through the accessors below; the
// tables behind them are slices indexed by the parser's node indices
// (ast.Expr.Index, ast.Pattern.Index), sized once from the program's node
// counts.
type Info struct {
	exprs []exprFacts
	pats  []patFacts
	// Datatypes and Ctors index the declared datatypes.
	Datatypes map[string]*Data
	Ctors     map[string]*CtorInfo
	// TopScheme maps top-level binding names to their schemes.
	TopScheme map[string]*Scheme
	// ListData is the built-in list datatype.
	ListData *Data
}

// exprFacts is what the checker records about one expression node.
type exprFacts struct {
	typ Type
	// inst: at an occurrence of a variable with a polymorphic scheme, and at
	// every constructor occurrence, the types instantiated for the quantified
	// variables, in scheme order.
	inst []Type
	// scheme: on the bound expression of a binding (unique per binding), the
	// binding's generalized scheme.
	scheme *Scheme
	// ref: on a variable occurrence, the scheme it referenced.
	ref *Scheme
}

// patFacts is what the checker records about one pattern node; inst is the
// instantiation at a constructor pattern.
type patFacts struct {
	typ  Type
	inst []Type
}

// ExprType is the resolved type of an expression (nil if none was recorded).
func (in *Info) ExprType(e ast.Expr) Type { return in.exprs[e.Index()].typ }

// Scheme is the generalized scheme of the binding whose bound expression is e.
func (in *Info) Scheme(e ast.Expr) *Scheme { return in.exprs[e.Index()].scheme }

// Inst is the instantiation recorded at a polymorphic variable occurrence or
// a constructor occurrence (nil elsewhere).
func (in *Info) Inst(e ast.Expr) []Type { return in.exprs[e.Index()].inst }

// VarScheme is the scheme a variable occurrence referenced.
func (in *Info) VarScheme(v *ast.Var) *Scheme { return in.exprs[v.ID].ref }

// ExprCtor resolves a constructor expression to its declaration (constructor
// names are unique across the program's datatypes).
func (in *Info) ExprCtor(c *ast.Ctor) *CtorInfo { return in.Ctors[c.Name] }

// CtorSplat reports whether a constructor application is C (e1, ..., en) with
// the single tuple argument filling the constructor's n > 1 fields directly.
func (in *Info) CtorSplat(c *ast.Ctor) bool {
	if ci := in.Ctors[c.Name]; ci != nil && len(ci.Args) > 1 && len(c.Args) == 1 {
		tup, ok := c.Args[0].(*ast.Tuple)
		return ok && len(tup.Elems) == len(ci.Args)
	}
	return false
}

// PatType is the resolved type of a pattern node.
func (in *Info) PatType(p ast.Pattern) Type { return in.pats[p.Index()].typ }

// PatCtor resolves a constructor pattern to its declaration.
func (in *Info) PatCtor(p *ast.PCtor) *CtorInfo { return in.Ctors[p.Name] }

// PatInst is the instantiation recorded at a constructor pattern.
func (in *Info) PatInst(p *ast.PCtor) []Type { return in.pats[p.ID].inst }

// PatSplat is CtorSplat for patterns.
func (in *Info) PatSplat(p *ast.PCtor) bool {
	if ci := in.Ctors[p.Name]; ci != nil && len(ci.Args) > 1 && len(p.Args) == 1 {
		tup, ok := p.Args[0].(*ast.PTuple)
		return ok && len(tup.Elems) == len(ci.Args)
	}
	return false
}

// checker carries inference state. Errors abort inference via panic with a
// *Error, recovered at the Check boundary.
type checker struct {
	nextID int
	level  int
	info   *Info
	// eqTypes are operand types of = and <>; after inference each must
	// resolve to an equality base type.
	eqTypes []eqConstraint
}

type eqConstraint struct {
	t   Type
	pos token.Pos
}

type env struct {
	parent *env
	name   string
	scheme *Scheme
}

func (e *env) bind(name string, s *Scheme) *env {
	return &env{parent: e, name: name, scheme: s}
}

func (e *env) lookup(name string) (*Scheme, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if cur.name == name {
			return cur.scheme, true
		}
	}
	return nil, false
}

func (c *checker) errf(pos token.Pos, format string, args ...any) {
	panic(&Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) fresh() *Var {
	c.nextID++
	return &Var{ID: c.nextID, Level: c.level}
}

// Check type-checks a program and returns the collected Info.
func Check(prog *ast.Program) (info *Info, err error) {
	c := &checker{
		info: &Info{
			exprs:     make([]exprFacts, prog.Exprs),
			pats:      make([]patFacts, prog.Pats),
			Datatypes: map[string]*Data{},
			Ctors:     map[string]*CtorInfo{},
			TopScheme: map[string]*Scheme{},
		},
	}
	defer func() {
		if r := recover(); r != nil {
			if te, ok := r.(*Error); ok {
				info, err = nil, te
				return
			}
			panic(r)
		}
	}()

	c.declareBuiltinData()
	genv := c.builtinEnv()

	// First pass: declare all datatypes (allows forward references between
	// datatypes but not forward references of values).
	for _, d := range prog.Decls {
		if td, ok := d.(*ast.TypeDecl); ok {
			c.declareData(td)
		}
	}
	for _, d := range prog.Decls {
		if td, ok := d.(*ast.TypeDecl); ok {
			c.fillData(td)
		}
	}

	for _, d := range prog.Decls {
		vd, ok := d.(*ast.ValDecl)
		if !ok {
			continue
		}
		genv = c.checkValDecl(vd, genv, true)
	}

	c.defaultAll()
	c.checkEqConstraints()
	return c.info, nil
}

// ---------------------------------------------------------------------------
// Datatype declarations.
// ---------------------------------------------------------------------------

func (c *checker) declareBuiltinData() {
	list := &Data{Name: "list", Params: 1}
	nilC := &CtorInfo{Name: "[]", Data: list, Tag: 0}
	consC := &CtorInfo{Name: "::", Data: list, Tag: 0, Args: []Type{
		ParamRef(0),
		&Con{Name: "list", Args: []Type{ParamRef(0)}, Data: list},
	}}
	list.Ctors = []*CtorInfo{nilC, consC}
	list.BoxedCtors = 1
	c.info.Datatypes["list"] = list
	c.info.Ctors["[]"] = nilC
	c.info.Ctors["::"] = consC
	c.info.ListData = list
}

func (c *checker) declareData(td *ast.TypeDecl) {
	if _, dup := c.info.Datatypes[td.Name]; dup {
		c.errf(td.P, "datatype %s redeclared", td.Name)
	}
	switch td.Name {
	case "int", "bool", "unit", "string", "list", "ref":
		c.errf(td.P, "cannot redeclare built-in type %s", td.Name)
	}
	c.info.Datatypes[td.Name] = &Data{Name: td.Name, Params: len(td.Params)}
}

func (c *checker) fillData(td *ast.TypeDecl) {
	data := c.info.Datatypes[td.Name]
	paramIdx := map[string]int{}
	for i, p := range td.Params {
		if _, dup := paramIdx[p]; dup {
			c.errf(td.P, "duplicate type parameter '%s", p)
		}
		paramIdx[p] = i
	}
	nullary, boxed := 0, 0
	for _, cd := range td.Ctors {
		if _, dup := c.info.Ctors[cd.Name]; dup {
			c.errf(cd.P, "constructor %s redeclared", cd.Name)
		}
		ci := &CtorInfo{Name: cd.Name, Data: data}
		for _, a := range cd.Args {
			ci.Args = append(ci.Args, c.typeFromExpr(a, paramIdx, nil))
		}
		if ci.IsNullary() {
			ci.Tag = nullary
			nullary++
		} else {
			ci.Tag = boxed
			boxed++
		}
		data.Ctors = append(data.Ctors, ci)
		c.info.Ctors[cd.Name] = ci
	}
	data.BoxedCtors = boxed
}

// typeFromExpr converts a source type expression to a semantic type.
// paramIdx maps datatype parameters to indices (ctor declarations);
// tvScope, when non-nil, accumulates fresh vars for annotation type
// variables.
func (c *checker) typeFromExpr(te ast.TypeExpr, paramIdx map[string]int, tvScope map[string]*Var) Type {
	switch te := te.(type) {
	case *ast.TEVar:
		if paramIdx != nil {
			if i, ok := paramIdx[te.Name]; ok {
				return ParamRef(i)
			}
			c.errf(te.P, "unbound type parameter '%s", te.Name)
		}
		if tvScope != nil {
			if v, ok := tvScope[te.Name]; ok {
				return v
			}
			v := c.fresh()
			tvScope[te.Name] = v
			return v
		}
		c.errf(te.P, "type variable '%s not allowed here", te.Name)
	case *ast.TEArrow:
		return &Arrow{
			Dom: c.typeFromExpr(te.Dom, paramIdx, tvScope),
			Cod: c.typeFromExpr(te.Cod, paramIdx, tvScope),
		}
	case *ast.TETuple:
		elems := make([]Type, len(te.Elems))
		for i, e := range te.Elems {
			elems[i] = c.typeFromExpr(e, paramIdx, tvScope)
		}
		return &TupleT{Elems: elems}
	case *ast.TEName:
		switch te.Name {
		case "int", "bool", "unit", "string":
			if len(te.Args) != 0 {
				c.errf(te.P, "type %s takes no arguments", te.Name)
			}
			switch te.Name {
			case "int":
				return Int
			case "bool":
				return Bool
			case "unit":
				return Unit
			default:
				return String
			}
		case "ref":
			if len(te.Args) != 1 {
				c.errf(te.P, "ref takes exactly one argument")
			}
			return &Con{Name: "ref", Args: []Type{c.typeFromExpr(te.Args[0], paramIdx, tvScope)}}
		}
		data, ok := c.info.Datatypes[te.Name]
		if !ok {
			c.errf(te.P, "unknown type %s", te.Name)
		}
		if len(te.Args) != data.Params {
			c.errf(te.P, "type %s expects %d argument(s), got %d", te.Name, data.Params, len(te.Args))
		}
		args := make([]Type, len(te.Args))
		for i, a := range te.Args {
			args[i] = c.typeFromExpr(a, paramIdx, tvScope)
		}
		return &Con{Name: te.Name, Args: args, Data: data}
	}
	panic("typeFromExpr: unreachable")
}

// ---------------------------------------------------------------------------
// Unification.
// ---------------------------------------------------------------------------

func (c *checker) unify(pos token.Pos, a, b Type) {
	a, b = Resolve(a), Resolve(b)
	if a == b {
		return
	}
	if av, ok := a.(*Var); ok && av.Quant == nil {
		c.bindVar(pos, av, b)
		return
	}
	if bv, ok := b.(*Var); ok && bv.Quant == nil {
		c.bindVar(pos, bv, a)
		return
	}
	switch at := a.(type) {
	case *Base:
		if bt, ok := b.(*Base); ok && at.Kind == bt.Kind {
			return
		}
	case *Arrow:
		if bt, ok := b.(*Arrow); ok {
			c.unify(pos, at.Dom, bt.Dom)
			c.unify(pos, at.Cod, bt.Cod)
			return
		}
	case *TupleT:
		if bt, ok := b.(*TupleT); ok && len(at.Elems) == len(bt.Elems) {
			for i := range at.Elems {
				c.unify(pos, at.Elems[i], bt.Elems[i])
			}
			return
		}
	case *Con:
		if bt, ok := b.(*Con); ok && at.Name == bt.Name && len(at.Args) == len(bt.Args) {
			for i := range at.Args {
				c.unify(pos, at.Args[i], bt.Args[i])
			}
			return
		}
	case *Var: // quantified var: only equal to itself, handled above
	}
	c.errf(pos, "cannot unify %s with %s", TypeString(a), TypeString(b))
}

func (c *checker) bindVar(pos token.Pos, v *Var, t Type) {
	if occurs(v, t) {
		c.errf(pos, "occurs check: cannot construct infinite type %s = %s",
			TypeString(v), TypeString(t))
	}
	adjustLevel(t, v.Level)
	v.Link = t
}

func occurs(v *Var, t Type) bool {
	switch t := Resolve(t).(type) {
	case *Var:
		return t == v
	case *Arrow:
		return occurs(v, t.Dom) || occurs(v, t.Cod)
	case *TupleT:
		for _, e := range t.Elems {
			if occurs(v, e) {
				return true
			}
		}
	case *Con:
		for _, a := range t.Args {
			if occurs(v, a) {
				return true
			}
		}
	}
	return false
}

func adjustLevel(t Type, level int) {
	switch t := Resolve(t).(type) {
	case *Var:
		if t.Quant == nil && t.Level > level {
			t.Level = level
		}
	case *Arrow:
		adjustLevel(t.Dom, level)
		adjustLevel(t.Cod, level)
	case *TupleT:
		for _, e := range t.Elems {
			adjustLevel(e, level)
		}
	case *Con:
		for _, a := range t.Args {
			adjustLevel(a, level)
		}
	}
}

// ---------------------------------------------------------------------------
// Generalization and instantiation.
// ---------------------------------------------------------------------------

// generalizeGroup quantifies, across all the given types at once, the
// variables whose level exceeds the current level. The types of a mutually
// recursive binding group can share variables, so quantification is
// per-group: every member scheme quantifies the full variable list.
func (c *checker) generalizeGroup(ts []Type) *GenGroup {
	g := &GenGroup{}
	var walk func(Type)
	walk = func(t Type) {
		switch t := Resolve(t).(type) {
		case *Var:
			if t.Quant == nil && t.Level > c.level {
				t.Quant = &QuantInfo{Index: len(g.Vars), Owner: g}
				g.Vars = append(g.Vars, t)
			}
		case *Arrow:
			walk(t.Dom)
			walk(t.Cod)
		case *TupleT:
			for _, e := range t.Elems {
				walk(e)
			}
		case *Con:
			for _, a := range t.Args {
				walk(a)
			}
		}
	}
	for _, t := range ts {
		walk(t)
	}
	if len(g.Vars) == 0 {
		return nil
	}
	return g
}

// instantiate replaces a scheme's quantified variables with fresh ones and
// returns the instantiated body together with the fresh variables (the
// instantiation record for GC metadata).
func (c *checker) instantiate(s *Scheme) (Type, []Type) {
	vars := s.Vars()
	if len(vars) == 0 {
		return s.Body, nil
	}
	fresh := make([]Type, len(vars))
	for i := range vars {
		fresh[i] = c.fresh()
	}
	return SubstGroup(s.Body, s.Group, fresh), fresh
}

// SubstGroup replaces the variables g quantifies (each knows its owner and
// its index in g.Vars) with the types at the same positions of inst. A nil g
// stands for a datatype declaration: its parameter references (ParamRef) have
// no owner.
func SubstGroup(t Type, g *GenGroup, inst []Type) Type {
	switch t := Resolve(t).(type) {
	case *Base:
		return t
	case *Var:
		if t.Quant != nil && t.Quant.Owner == g {
			return inst[t.Quant.Index]
		}
		return t
	case *Arrow:
		return &Arrow{Dom: SubstGroup(t.Dom, g, inst), Cod: SubstGroup(t.Cod, g, inst)}
	case *TupleT:
		elems := make([]Type, len(t.Elems))
		for i, e := range t.Elems {
			elems[i] = SubstGroup(e, g, inst)
		}
		return &TupleT{Elems: elems}
	case *Con:
		args := make([]Type, len(t.Args))
		for i, a := range t.Args {
			args[i] = SubstGroup(a, g, inst)
		}
		return &Con{Name: t.Name, Args: args, Data: t.Data}
	}
	panic("SubstGroup: unreachable")
}

// isSyntacticValue implements the ML value restriction: only syntactic
// values may be generalized.
func isSyntacticValue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.IntLit, *ast.BoolLit, *ast.UnitLit, *ast.StrLit, *ast.Var, *ast.Lam:
		return true
	case *ast.Ann:
		return isSyntacticValue(e.Expr)
	case *ast.Tuple:
		for _, el := range e.Elems {
			if !isSyntacticValue(el) {
				return false
			}
		}
		return true
	case *ast.Ctor:
		for _, a := range e.Args {
			if !isSyntacticValue(a) {
				return false
			}
		}
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Expression inference.
// ---------------------------------------------------------------------------

func (c *checker) builtinEnv() *env {
	var e *env
	bind := func(name string, t Type) {
		e = e.bind(name, Mono(t))
	}
	bind("print_int", &Arrow{Dom: Int, Cod: Unit})
	bind("print_bool", &Arrow{Dom: Bool, Cod: Unit})
	bind("print_string", &Arrow{Dom: String, Cod: Unit})
	bind("print_newline", &Arrow{Dom: Unit, Cod: Unit})
	return e
}

// BuiltinNames lists the runtime-provided functions available to programs.
var BuiltinNames = []string{"print_int", "print_bool", "print_string", "print_newline"}

func (c *checker) checkValDecl(vd *ast.ValDecl, e *env, top bool) *env {
	schemes := c.checkBinds(vd.P, vd.Rec, vd.Binds, e)
	for i, b := range vd.Binds {
		e = e.bind(b.Name, schemes[i])
		if top && b.Name != "_" {
			c.info.TopScheme[b.Name] = schemes[i]
		}
	}
	return e
}

// checkBinds infers a let or let-rec group and returns one scheme per bind.
func (c *checker) checkBinds(pos token.Pos, rec bool, binds []ast.Bind, e *env) []*Scheme {
	c.level++
	var rhsTypes []Type
	if rec {
		// Bind each name monomorphically for the duration of the bodies.
		recEnv := e
		vars := make([]*Var, len(binds))
		for i, b := range binds {
			vars[i] = c.fresh()
			recEnv = recEnv.bind(b.Name, Mono(vars[i]))
		}
		for i, b := range binds {
			t := c.inferBind(b, recEnv)
			c.unify(b.P, vars[i], t)
			rhsTypes = append(rhsTypes, t)
		}
	} else {
		for _, b := range binds {
			rhsTypes = append(rhsTypes, c.inferBind(b, e))
		}
	}
	c.level--

	// The ML value restriction: generalize only syntactic values. For a
	// recursive group, all members must be values (they share variables, so
	// the group generalizes as a whole or not at all).
	allValues := true
	for _, b := range binds {
		if !isSyntacticValue(b.Expr) {
			allValues = false
			break
		}
	}
	var group *GenGroup
	if allValues {
		group = c.generalizeGroup(rhsTypes)
	}
	schemes := make([]*Scheme, len(binds))
	for i, b := range binds {
		schemes[i] = &Scheme{Group: group, Body: rhsTypes[i]}
		c.info.exprs[b.Expr.Index()].scheme = schemes[i]
	}
	_ = pos
	return schemes
}

func (c *checker) inferBind(b ast.Bind, e *env) Type {
	t := c.infer(b.Expr, e)
	if b.Ann != nil {
		tv := map[string]*Var{}
		want := c.typeFromExpr(b.Ann, nil, tv)
		c.unify(b.P, t, want)
	}
	return t
}

func (c *checker) infer(expr ast.Expr, e *env) Type {
	t := c.inferRaw(expr, e)
	c.info.exprs[expr.Index()].typ = t
	return t
}

func (c *checker) inferRaw(expr ast.Expr, e *env) Type {
	switch ex := expr.(type) {
	case *ast.IntLit:
		return Int
	case *ast.BoolLit:
		return Bool
	case *ast.UnitLit:
		return Unit
	case *ast.StrLit:
		return String

	case *ast.Var:
		s, ok := e.lookup(ex.Name)
		if !ok {
			c.errf(ex.P, "unbound variable %s", ex.Name)
		}
		t, inst := c.instantiate(s)
		c.info.exprs[ex.ID].ref, c.info.exprs[ex.ID].inst = s, inst
		return t

	case *ast.Ctor:
		return c.inferCtor(ex, e)

	case *ast.App:
		fn := c.infer(ex.Fn, e)
		arg := c.infer(ex.Arg, e)
		res := c.fresh()
		c.unify(ex.P, fn, &Arrow{Dom: arg, Cod: res})
		return res

	case *ast.Lam:
		param := Type(c.fresh())
		if ex.ParamAnn != nil {
			tv := map[string]*Var{}
			want := c.typeFromExpr(ex.ParamAnn, nil, tv)
			c.unify(ex.P, param, want)
		}
		body := c.infer(ex.Body, e.bind(ex.Param, Mono(param)))
		return &Arrow{Dom: param, Cod: body}

	case *ast.Let:
		schemes := c.checkBinds(ex.P, ex.Rec, ex.Binds, e)
		inner := e
		for i, b := range ex.Binds {
			inner = inner.bind(b.Name, schemes[i])
		}
		return c.infer(ex.Body, inner)

	case *ast.If:
		c.unify(ex.Cond.Pos(), c.infer(ex.Cond, e), Bool)
		thn := c.infer(ex.Then, e)
		els := c.infer(ex.Else, e)
		c.unify(ex.P, thn, els)
		return thn

	case *ast.Match:
		scrut := c.infer(ex.Scrut, e)
		res := Type(c.fresh())
		if len(ex.Arms) == 0 {
			c.errf(ex.P, "match with no arms")
		}
		for _, arm := range ex.Arms {
			binds := map[string]Type{}
			c.checkPattern(arm.Pat, scrut, binds, e)
			armEnv := e
			for name, t := range binds {
				armEnv = armEnv.bind(name, Mono(t))
			}
			c.unify(arm.P, c.infer(arm.Body, armEnv), res)
		}
		return res

	case *ast.Tuple:
		elems := make([]Type, len(ex.Elems))
		for i, el := range ex.Elems {
			elems[i] = c.infer(el, e)
		}
		return &TupleT{Elems: elems}

	case *ast.Prim:
		return c.inferPrim(ex, e)

	case *ast.Seq:
		c.unify(ex.First.Pos(), c.infer(ex.First, e), Unit)
		return c.infer(ex.Rest, e)

	case *ast.Ann:
		t := c.infer(ex.Expr, e)
		tv := map[string]*Var{}
		want := c.typeFromExpr(ex.Type, nil, tv)
		c.unify(ex.P, t, want)
		return t
	}
	panic("infer: unreachable expression")
}

func (c *checker) inferCtor(ex *ast.Ctor, e *env) Type {
	ci, ok := c.info.Ctors[ex.Name]
	if !ok {
		c.errf(ex.P, "unknown constructor %s", ex.Name)
	}

	inst := make([]Type, ci.Data.Params)
	for i := range inst {
		inst[i] = c.fresh()
	}
	c.info.exprs[ex.ID].inst = inst
	fieldTypes := ci.Instantiate(inst)

	args := ex.Args
	// Splat C (e1, ..., en) onto an n-field constructor.
	if c.info.CtorSplat(ex) {
		tup := args[0].(*ast.Tuple)
		args = tup.Elems
		// The tuple node itself still needs a recorded type; give it the
		// product of the field types so later stages can consult it.
		c.info.exprs[tup.ID].typ = &TupleT{Elems: fieldTypes}
	}
	if len(args) != len(ci.Args) {
		c.errf(ex.P, "constructor %s expects %d argument(s), got %d", ex.Name, len(ci.Args), len(args))
	}
	for i, a := range args {
		c.unify(a.Pos(), c.infer(a, e), fieldTypes[i])
	}
	return &Con{Name: ci.Data.Name, Args: inst, Data: ci.Data}
}

func (c *checker) inferPrim(ex *ast.Prim, e *env) Type {
	arg := func(i int) Type { return c.infer(ex.Args[i], e) }
	switch ex.Op {
	case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpMod:
		c.unify(ex.Args[0].Pos(), arg(0), Int)
		c.unify(ex.Args[1].Pos(), arg(1), Int)
		return Int
	case ast.OpNeg:
		c.unify(ex.Args[0].Pos(), arg(0), Int)
		return Int
	case ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
		c.unify(ex.Args[0].Pos(), arg(0), Int)
		c.unify(ex.Args[1].Pos(), arg(1), Int)
		return Bool
	case ast.OpEq, ast.OpNe:
		a := arg(0)
		c.unify(ex.Args[1].Pos(), arg(1), a)
		c.eqTypes = append(c.eqTypes, eqConstraint{t: a, pos: ex.P})
		return Bool
	case ast.OpAnd, ast.OpOr:
		c.unify(ex.Args[0].Pos(), arg(0), Bool)
		c.unify(ex.Args[1].Pos(), arg(1), Bool)
		return Bool
	case ast.OpNot:
		c.unify(ex.Args[0].Pos(), arg(0), Bool)
		return Bool
	case ast.OpRef:
		return &Con{Name: "ref", Args: []Type{arg(0)}}
	case ast.OpDeref:
		v := c.fresh()
		c.unify(ex.Args[0].Pos(), arg(0), &Con{Name: "ref", Args: []Type{v}})
		return v
	case ast.OpAssign:
		v := c.fresh()
		c.unify(ex.Args[0].Pos(), arg(0), &Con{Name: "ref", Args: []Type{v}})
		c.unify(ex.Args[1].Pos(), arg(1), v)
		return Unit
	}
	panic("inferPrim: unknown op")
}

// ---------------------------------------------------------------------------
// Pattern inference.
// ---------------------------------------------------------------------------

func (c *checker) checkPattern(p ast.Pattern, scrut Type, binds map[string]Type, e *env) {
	c.info.pats[p.Index()].typ = scrut
	switch pat := p.(type) {
	case *ast.PWild:
	case *ast.PVar:
		if _, dup := binds[pat.Name]; dup {
			c.errf(pat.P, "variable %s bound twice in pattern", pat.Name)
		}
		binds[pat.Name] = scrut
	case *ast.PInt:
		c.unify(pat.P, scrut, Int)
	case *ast.PBool:
		c.unify(pat.P, scrut, Bool)
	case *ast.PUnit:
		c.unify(pat.P, scrut, Unit)
	case *ast.PTuple:
		elems := make([]Type, len(pat.Elems))
		for i := range elems {
			elems[i] = c.fresh()
		}
		c.unify(pat.P, scrut, &TupleT{Elems: elems})
		for i, el := range pat.Elems {
			c.checkPattern(el, elems[i], binds, e)
		}
	case *ast.PCtor:
		ci, ok := c.info.Ctors[pat.Name]
		if !ok {
			c.errf(pat.P, "unknown constructor %s in pattern", pat.Name)
		}
		inst := make([]Type, ci.Data.Params)
		for i := range inst {
			inst[i] = c.fresh()
		}
		c.info.pats[pat.ID].inst = inst
		c.unify(pat.P, scrut, &Con{Name: ci.Data.Name, Args: inst, Data: ci.Data})
		fieldTypes := ci.Instantiate(inst)

		args := pat.Args
		if c.info.PatSplat(pat) {
			tup := args[0].(*ast.PTuple)
			args = tup.Elems
			c.info.pats[tup.ID].typ = &TupleT{Elems: fieldTypes}
		}
		if len(args) != len(ci.Args) {
			c.errf(pat.P, "constructor %s expects %d argument(s) in pattern, got %d",
				pat.Name, len(ci.Args), len(args))
		}
		for i, a := range args {
			c.checkPattern(a, fieldTypes[i], binds, e)
		}
	}
}

// ---------------------------------------------------------------------------
// Post-inference passes.
// ---------------------------------------------------------------------------

// defaultAll binds any remaining free (weak) unification variables to int so
// that every recorded type is ground or quantified. This mirrors ML
// implementations that default unresolved weak types.
func (c *checker) defaultAll() {
	for i := range c.info.exprs {
		f := &c.info.exprs[i]
		defaultFree(f.typ)
		for _, t := range f.inst {
			defaultFree(t)
		}
		if f.scheme != nil {
			defaultFree(f.scheme.Body)
		}
	}
	for i := range c.info.pats {
		f := &c.info.pats[i]
		defaultFree(f.typ)
		for _, t := range f.inst {
			defaultFree(t)
		}
	}
}

// defaultFree links every unbound, un-generalized variable of t (nil for a
// node nothing was recorded on) to int.
func defaultFree(t Type) {
	switch t := Resolve(t).(type) {
	case *Var:
		if t.Quant == nil {
			t.Link = Int
		}
	case *Arrow:
		defaultFree(t.Dom)
		defaultFree(t.Cod)
	case *TupleT:
		for _, e := range t.Elems {
			defaultFree(e)
		}
	case *Con:
		for _, a := range t.Args {
			defaultFree(a)
		}
	}
}

// checkEqConstraints verifies that = and <> were used at equality types.
// MinML restricts equality to int, bool, unit and string (word-comparable
// representations); structural equality on heap data would itself require
// the GC's type information and is out of scope.
func (c *checker) checkEqConstraints() {
	for _, ec := range c.eqTypes {
		switch t := Resolve(ec.t).(type) {
		case *Base:
			// All base types compare by word.
		case *Var:
			// Still free after defaulting means quantified: polymorphic
			// equality is rejected.
			c.errf(ec.pos, "polymorphic equality is not supported; compare base types only")
		default:
			c.errf(ec.pos, "equality is not defined on %s; compare base types only", TypeString(t))
		}
	}
}

// Package parser builds MinML abstract syntax trees from source text.
//
// The parser is hand-written recursive descent with conventional ML
// precedences:
//
//	;  (sequencing, lowest)
//	:=
//	||
//	&&
//	= <> < <= > >=
//	::             (right associative)
//	+ -
//	* / mod
//	unary - ! not ref
//	application    (highest, left associative)
//
// "Big" expressions (fun, if, match, let-in) are greedy: they extend as far
// right as possible and must be parenthesized when used as operands.
package parser

import (
	"fmt"
	"strconv"

	"tagfree/internal/mlang/ast"
	"tagfree/internal/mlang/lexer"
	"tagfree/internal/mlang/token"
)

// Error is a syntax error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: syntax error: %s", e.Pos, e.Msg) }

// parser pulls tokens from the lexer through a three-token window: the
// grammar never rewinds and looks at most two tokens past the current one
// (parseParams), so the token stream is never materialised.
type parser struct {
	lx *lexer.Lexer
	// win[0] is the current token, win[1] and win[2] the lookahead. Past the
	// end of input every entry is EOF.
	win [3]token.Token
	// exprs and pats count the expression and pattern nodes built so far;
	// each node's index is the count at its creation.
	exprs, pats int
}

func newParser(src string) *parser {
	p := &parser{lx: lexer.New(src)}
	for i := range p.win {
		p.win[i] = p.lx.Next()
	}
	return p
}

// Parse parses a full MinML program.
func Parse(src string) (*ast.Program, error) {
	p := newParser(src)
	prog := &ast.Program{}
	for !p.at(token.EOF) {
		d, err := p.parseDecl()
		if err != nil {
			return nil, p.finish(err)
		}
		prog.Decls = append(prog.Decls, d)
		for p.at(token.SEMISEMI) {
			p.next()
		}
	}
	if err := p.finish(nil); err != nil {
		return nil, err
	}
	prog.Exprs, prog.Pats = p.exprs, p.pats
	return prog, nil
}

// ParseExpr parses a single expression (used by tests and the REPL-style
// tooling).
func ParseExpr(src string) (ast.Expr, error) {
	p := newParser(src)
	e, err := p.parseExpr()
	if err == nil && !p.at(token.EOF) {
		err = p.errf("unexpected %s after expression", p.cur())
	}
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return e, nil
}

// finish decides the error of a parse that ended with err (nil at EOF). The
// first lexical error anywhere in the input wins over a syntax error, even an
// earlier one, so the rest of the input is scanned before answering.
func (p *parser) finish(err error) error {
	for p.win[2].Kind != token.EOF {
		p.win[2] = p.lx.Next()
	}
	if errs := p.lx.Errors(); len(errs) > 0 {
		return errs[0]
	}
	return err
}

func (p *parser) newExpr() int { p.exprs++; return p.exprs - 1 }
func (p *parser) newPat() int  { p.pats++; return p.pats - 1 }

func (p *parser) cur() token.Token          { return p.win[0] }
func (p *parser) at(k token.Kind) bool      { return p.win[0].Kind == k }
func (p *parser) peekKind(n int) token.Kind { return p.win[n].Kind }

func (p *parser) next() token.Token {
	t := p.win[0]
	if t.Kind != token.EOF {
		p.win[0], p.win[1], p.win[2] = p.win[1], p.win[2], p.lx.Next()
	}
	return t
}

func (p *parser) expect(k token.Kind) (token.Token, error) {
	if !p.at(k) {
		return token.Token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// ---------------------------------------------------------------------------
// Declarations.
// ---------------------------------------------------------------------------

func (p *parser) parseDecl() (ast.Decl, error) {
	switch p.cur().Kind {
	case token.TYPE:
		return p.parseTypeDecl()
	case token.LET:
		return p.parseValDecl()
	default:
		return nil, p.errf("expected declaration, found %s", p.cur())
	}
}

func (p *parser) parseTypeDecl() (ast.Decl, error) {
	start := p.next() // type
	d := &ast.TypeDecl{P: start.Pos}

	// Optional type parameters: 'a name, or ('a, 'b) name.
	switch p.cur().Kind {
	case token.TYVAR:
		d.Params = append(d.Params, p.next().Text)
	case token.LPAREN:
		p.next()
		for {
			t, err := p.expect(token.TYVAR)
			if err != nil {
				return nil, err
			}
			d.Params = append(d.Params, t.Text)
			if !p.at(token.COMMA) {
				break
			}
			p.next()
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
	}

	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	d.Name = name.Text
	if _, err := p.expect(token.EQ); err != nil {
		return nil, err
	}
	if p.at(token.BAR) { // optional leading bar
		p.next()
	}
	for {
		c, err := p.parseCtorDecl()
		if err != nil {
			return nil, err
		}
		d.Ctors = append(d.Ctors, c)
		if !p.at(token.BAR) {
			break
		}
		p.next()
	}
	return d, nil
}

func (p *parser) parseCtorDecl() (ast.CtorDecl, error) {
	name, err := p.expect(token.CTOR)
	if err != nil {
		return ast.CtorDecl{}, err
	}
	c := ast.CtorDecl{P: name.Pos, Name: name.Text}
	if p.at(token.OF) {
		p.next()
		// A product of field types: t1 * t2 * ... Each field parses at
		// "postfix" precedence so that * separates fields.
		for {
			t, err := p.parseTypePostfix()
			if err != nil {
				return ast.CtorDecl{}, err
			}
			c.Args = append(c.Args, t)
			if !p.at(token.STAR) {
				break
			}
			p.next()
		}
	}
	return c, nil
}

func (p *parser) parseValDecl() (ast.Decl, error) {
	start := p.next() // let
	d := &ast.ValDecl{P: start.Pos}
	if p.at(token.REC) {
		p.next()
		d.Rec = true
	}
	for {
		b, err := p.parseBind()
		if err != nil {
			return nil, err
		}
		d.Binds = append(d.Binds, b)
		if !p.at(token.AND) {
			break
		}
		p.next()
	}
	return d, nil
}

// param is a function parameter in a binding or fun expression.
type param struct {
	name string
	ann  ast.TypeExpr
	pos  token.Pos
}

// parseParams parses zero or more parameters: x, _, (), (x : t).
func (p *parser) parseParams() ([]param, error) {
	var ps []param
	for {
		switch p.cur().Kind {
		case token.IDENT:
			t := p.next()
			ps = append(ps, param{name: t.Text, pos: t.Pos})
		case token.UNDERSCORE:
			t := p.next()
			ps = append(ps, param{name: "_", pos: t.Pos})
		case token.LPAREN:
			// () or (x : t) — only those forms are parameters; a bare ( that
			// is not one of them ends the parameter list (it belongs to the
			// body, which cannot happen before '=', so report it then).
			if p.peekKind(1) == token.RPAREN {
				t := p.next()
				p.next()
				ps = append(ps, param{name: "_", ann: &ast.TEName{P: t.Pos, Name: "unit"}, pos: t.Pos})
				continue
			}
			if p.peekKind(1) == token.IDENT && p.peekKind(2) == token.COLON {
				t := p.next()
				name := p.next()
				p.next() // colon
				ty, err := p.parseType()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(token.RPAREN); err != nil {
					return nil, err
				}
				ps = append(ps, param{name: name.Text, ann: ty, pos: t.Pos})
				continue
			}
			return ps, nil
		default:
			return ps, nil
		}
	}
}

func (p *parser) parseBind() (ast.Bind, error) {
	name := p.cur()
	var nm string
	switch name.Kind {
	case token.IDENT:
		nm = name.Text
		p.next()
	case token.UNDERSCORE:
		nm = "_"
		p.next()
	case token.LPAREN:
		// let () = e
		if p.peekKind(1) == token.RPAREN {
			p.next()
			p.next()
			nm = "_"
		} else {
			return ast.Bind{}, p.errf("expected binding name")
		}
	default:
		return ast.Bind{}, p.errf("expected binding name, found %s", p.cur())
	}

	params, err := p.parseParams()
	if err != nil {
		return ast.Bind{}, err
	}

	var ann ast.TypeExpr
	if p.at(token.COLON) {
		p.next()
		ann, err = p.parseType()
		if err != nil {
			return ast.Bind{}, err
		}
	}
	if _, err := p.expect(token.EQ); err != nil {
		return ast.Bind{}, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return ast.Bind{}, err
	}
	// Result annotation on a function binding annotates the innermost body.
	if ann != nil && len(params) > 0 {
		body = &ast.Ann{P: body.Pos(), ID: p.newExpr(), Expr: body, Type: ann}
		ann = nil
	}
	for i := len(params) - 1; i >= 0; i-- {
		body = &ast.Lam{P: params[i].pos, ID: p.newExpr(), Param: params[i].name, ParamAnn: params[i].ann, Body: body}
	}
	return ast.Bind{P: name.Pos, Name: nm, Expr: body, Ann: ann}, nil
}

// ---------------------------------------------------------------------------
// Types.
// ---------------------------------------------------------------------------

func (p *parser) parseType() (ast.TypeExpr, error) {
	return p.parseTypeArrow()
}

func (p *parser) parseTypeArrow() (ast.TypeExpr, error) {
	dom, err := p.parseTypeProd()
	if err != nil {
		return nil, err
	}
	if p.at(token.ARROW) {
		t := p.next()
		cod, err := p.parseTypeArrow()
		if err != nil {
			return nil, err
		}
		return &ast.TEArrow{P: t.Pos, Dom: dom, Cod: cod}, nil
	}
	return dom, nil
}

func (p *parser) parseTypeProd() (ast.TypeExpr, error) {
	first, err := p.parseTypePostfix()
	if err != nil {
		return nil, err
	}
	if !p.at(token.STAR) {
		return first, nil
	}
	elems := []ast.TypeExpr{first}
	for p.at(token.STAR) {
		p.next()
		e, err := p.parseTypePostfix()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
	}
	return &ast.TETuple{P: first.Pos(), Elems: elems}, nil
}

// parseTypePostfix parses an atomic type followed by postfix type
// constructor applications: int list, 'a list ref, (int, bool) pair.
func (p *parser) parseTypePostfix() (ast.TypeExpr, error) {
	var args []ast.TypeExpr
	switch p.cur().Kind {
	case token.TYVAR:
		t := p.next()
		args = []ast.TypeExpr{&ast.TEVar{P: t.Pos, Name: t.Text}}
	case token.IDENT:
		t := p.next()
		args = []ast.TypeExpr{&ast.TEName{P: t.Pos, Name: t.Text}}
	case token.REF:
		// "ref" as a bare type name cannot appear first; handled as postfix.
		return nil, p.errf("ref is a postfix type constructor")
	case token.LPAREN:
		p.next()
		for {
			a, err := p.parseType()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if !p.at(token.COMMA) {
				break
			}
			p.next()
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
	default:
		return nil, p.errf("expected type, found %s", p.cur())
	}

	for p.at(token.IDENT) || p.at(token.REF) {
		t := p.next()
		name := t.Text
		if t.Kind == token.REF {
			name = "ref"
		}
		args = []ast.TypeExpr{&ast.TEName{P: t.Pos, Name: name, Args: args}}
	}
	if len(args) != 1 {
		return nil, p.errf("parenthesized type group must be followed by a type constructor name")
	}
	return args[0], nil
}

// ---------------------------------------------------------------------------
// Expressions.
// ---------------------------------------------------------------------------

// isBigStart reports whether the current token begins a greedy "big"
// expression.
func (p *parser) isBigStart() bool {
	switch p.cur().Kind {
	case token.FUN, token.IF, token.MATCH, token.LET:
		return true
	}
	return false
}

func (p *parser) parseExpr() (ast.Expr, error) {
	return p.parseSeq()
}

func (p *parser) parseSeq() (ast.Expr, error) {
	first, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	if !p.at(token.SEMI) {
		return first, nil
	}
	t := p.next()
	rest, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	return &ast.Seq{P: t.Pos, ID: p.newExpr(), First: first, Rest: rest}, nil
}

func (p *parser) parseAssign() (ast.Expr, error) {
	if p.isBigStart() {
		return p.parseBig()
	}
	lhs, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.at(token.ASSIGN) {
		t := p.next()
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		return &ast.Prim{P: t.Pos, ID: p.newExpr(), Op: ast.OpAssign, Args: []ast.Expr{lhs, rhs}}, nil
	}
	return lhs, nil
}

// operand parses the right-hand operand of a binary operator, permitting a
// greedy big expression (so `x + if b then 1 else 2` needs no parens on the
// right, like OCaml).
func (p *parser) operand(sub func() (ast.Expr, error)) (ast.Expr, error) {
	if p.isBigStart() {
		return p.parseBig()
	}
	return sub()
}

func (p *parser) parseOr() (ast.Expr, error) {
	lhs, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(token.BARBAR) {
		t := p.next()
		rhs, err := p.operand(p.parseAnd)
		if err != nil {
			return nil, err
		}
		// Short-circuit: a || b  ==>  if a then true else b.
		lhs = &ast.If{P: t.Pos, ID: p.newExpr(), Cond: lhs, Then: &ast.BoolLit{P: t.Pos, ID: p.newExpr(), Val: true}, Else: rhs}
	}
	return lhs, nil
}

func (p *parser) parseAnd() (ast.Expr, error) {
	lhs, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.at(token.AMPAMP) {
		t := p.next()
		rhs, err := p.operand(p.parseCmp)
		if err != nil {
			return nil, err
		}
		// Short-circuit: a && b  ==>  if a then b else false.
		lhs = &ast.If{P: t.Pos, ID: p.newExpr(), Cond: lhs, Then: rhs, Else: &ast.BoolLit{P: t.Pos, ID: p.newExpr(), Val: false}}
	}
	return lhs, nil
}

var cmpOps = map[token.Kind]ast.PrimOp{
	token.EQ: ast.OpEq, token.NE: ast.OpNe, token.LT: ast.OpLt,
	token.LE: ast.OpLe, token.GT: ast.OpGt, token.GE: ast.OpGe,
}

func (p *parser) parseCmp() (ast.Expr, error) {
	lhs, err := p.parseCons()
	if err != nil {
		return nil, err
	}
	if op, ok := cmpOps[p.cur().Kind]; ok {
		t := p.next()
		rhs, err := p.operand(p.parseCons)
		if err != nil {
			return nil, err
		}
		return &ast.Prim{P: t.Pos, ID: p.newExpr(), Op: op, Args: []ast.Expr{lhs, rhs}}, nil
	}
	return lhs, nil
}

func (p *parser) parseCons() (ast.Expr, error) {
	lhs, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.at(token.CONS) {
		t := p.next()
		rhs, err := p.operand(p.parseCons)
		if err != nil {
			return nil, err
		}
		return &ast.Ctor{P: t.Pos, ID: p.newExpr(), Name: "::", Args: []ast.Expr{lhs, rhs}}, nil
	}
	return lhs, nil
}

func (p *parser) parseAdd() (ast.Expr, error) {
	lhs, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.at(token.PLUS) || p.at(token.MINUS) {
		t := p.next()
		op := ast.OpAdd
		if t.Kind == token.MINUS {
			op = ast.OpSub
		}
		rhs, err := p.operand(p.parseMul)
		if err != nil {
			return nil, err
		}
		lhs = &ast.Prim{P: t.Pos, ID: p.newExpr(), Op: op, Args: []ast.Expr{lhs, rhs}}
	}
	return lhs, nil
}

func (p *parser) parseMul() (ast.Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(token.STAR) || p.at(token.SLASH) || p.at(token.MOD) {
		t := p.next()
		var op ast.PrimOp
		switch t.Kind {
		case token.STAR:
			op = ast.OpMul
		case token.SLASH:
			op = ast.OpDiv
		default:
			op = ast.OpMod
		}
		rhs, err := p.operand(p.parseUnary)
		if err != nil {
			return nil, err
		}
		lhs = &ast.Prim{P: t.Pos, ID: p.newExpr(), Op: op, Args: []ast.Expr{lhs, rhs}}
	}
	return lhs, nil
}

func (p *parser) parseUnary() (ast.Expr, error) {
	switch p.cur().Kind {
	case token.MINUS:
		t := p.next()
		// Negative integer literal folds immediately.
		if p.at(token.INT) {
			lit := p.next()
			v, err := strconv.ParseInt("-"+lit.Text, 10, 64)
			if err != nil {
				return nil, &Error{Pos: lit.Pos, Msg: "integer literal out of range"}
			}
			return &ast.IntLit{P: t.Pos, ID: p.newExpr(), Val: v}, nil
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Prim{P: t.Pos, ID: p.newExpr(), Op: ast.OpNeg, Args: []ast.Expr{e}}, nil
	case token.BANG:
		t := p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Prim{P: t.Pos, ID: p.newExpr(), Op: ast.OpDeref, Args: []ast.Expr{e}}, nil
	case token.NOT:
		t := p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Prim{P: t.Pos, ID: p.newExpr(), Op: ast.OpNot, Args: []ast.Expr{e}}, nil
	case token.REF:
		t := p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Prim{P: t.Pos, ID: p.newExpr(), Op: ast.OpRef, Args: []ast.Expr{e}}, nil
	}
	return p.parseApp()
}

func (p *parser) atomStart() bool {
	switch p.cur().Kind {
	case token.INT, token.TRUE, token.FALSE, token.IDENT, token.CTOR,
		token.LPAREN, token.LBRACKET, token.BEGIN, token.STRING:
		return true
	}
	return false
}

func (p *parser) parseApp() (ast.Expr, error) {
	// A constructor application: Ctor atom?
	if p.at(token.CTOR) {
		t := p.next()
		c := &ast.Ctor{P: t.Pos, ID: p.newExpr(), Name: t.Text}
		if p.atomStart() {
			arg, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			c.Args = []ast.Expr{arg}
		}
		// A constructor value is not a function: no further application.
		return c, nil
	}

	fn, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for p.atomStart() {
		// Constructor as argument: f Some — parse the ctor atom.
		arg, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		fn = &ast.App{P: arg.Pos(), ID: p.newExpr(), Fn: fn, Arg: arg}
	}
	return fn, nil
}

func (p *parser) parseAtom() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case token.INT:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, &Error{Pos: t.Pos, Msg: "integer literal out of range"}
		}
		return &ast.IntLit{P: t.Pos, ID: p.newExpr(), Val: v}, nil
	case token.TRUE:
		p.next()
		return &ast.BoolLit{P: t.Pos, ID: p.newExpr(), Val: true}, nil
	case token.FALSE:
		p.next()
		return &ast.BoolLit{P: t.Pos, ID: p.newExpr(), Val: false}, nil
	case token.STRING:
		p.next()
		return &ast.StrLit{P: t.Pos, ID: p.newExpr(), Val: t.Text}, nil
	case token.IDENT:
		p.next()
		return &ast.Var{P: t.Pos, ID: p.newExpr(), Name: t.Text}, nil
	case token.CTOR:
		p.next()
		return &ast.Ctor{P: t.Pos, ID: p.newExpr(), Name: t.Text}, nil
	case token.LPAREN:
		p.next()
		if p.at(token.RPAREN) {
			p.next()
			return &ast.UnitLit{P: t.Pos, ID: p.newExpr()}, nil
		}
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.at(token.COLON) {
			p.next()
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			first = &ast.Ann{P: t.Pos, ID: p.newExpr(), Expr: first, Type: ty}
		}
		if p.at(token.COMMA) {
			elems := []ast.Expr{first}
			for p.at(token.COMMA) {
				p.next()
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
			}
			if _, err := p.expect(token.RPAREN); err != nil {
				return nil, err
			}
			return &ast.Tuple{P: t.Pos, ID: p.newExpr(), Elems: elems}, nil
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
		return first, nil
	case token.BEGIN:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.END); err != nil {
			return nil, err
		}
		return e, nil
	case token.LBRACKET:
		p.next()
		nilExpr := func(pos token.Pos) ast.Expr { return &ast.Ctor{P: pos, ID: p.newExpr(), Name: "[]"} }
		if p.at(token.RBRACKET) {
			p.next()
			return nilExpr(t.Pos), nil
		}
		var elems []ast.Expr
		for {
			e, err := p.parseAssign() // `;` separates list elements
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			if !p.at(token.SEMI) {
				break
			}
			p.next()
		}
		if _, err := p.expect(token.RBRACKET); err != nil {
			return nil, err
		}
		list := nilExpr(t.Pos)
		for i := len(elems) - 1; i >= 0; i-- {
			list = &ast.Ctor{P: elems[i].Pos(), ID: p.newExpr(), Name: "::", Args: []ast.Expr{elems[i], list}}
		}
		return list, nil
	}
	return nil, p.errf("expected expression, found %s", t)
}

// parseBig parses fun / if / match / let-in expressions, which extend as far
// right as possible.
func (p *parser) parseBig() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case token.FUN:
		p.next()
		params, err := p.parseParams()
		if err != nil {
			return nil, err
		}
		if len(params) == 0 {
			return nil, p.errf("fun requires at least one parameter")
		}
		if _, err := p.expect(token.ARROW); err != nil {
			return nil, err
		}
		body, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		for i := len(params) - 1; i >= 0; i-- {
			body = &ast.Lam{P: params[i].pos, ID: p.newExpr(), Param: params[i].name, ParamAnn: params[i].ann, Body: body}
		}
		return body, nil

	case token.IF:
		p.next()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.THEN); err != nil {
			return nil, err
		}
		// The then-branch stops at `else`; parse at assign level so that a
		// trailing `;` or `else` terminates it.
		thn, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.ELSE); err != nil {
			return nil, err
		}
		els, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ast.If{P: t.Pos, ID: p.newExpr(), Cond: cond, Then: thn, Else: els}, nil

	case token.MATCH:
		p.next()
		scrut, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.WITH); err != nil {
			return nil, err
		}
		if p.at(token.BAR) {
			p.next()
		}
		m := &ast.Match{P: t.Pos, ID: p.newExpr(), Scrut: scrut}
		for {
			pat, err := p.parsePattern()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.ARROW); err != nil {
				return nil, err
			}
			body, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			m.Arms = append(m.Arms, ast.Arm{P: pat.Pos(), Pat: pat, Body: body})
			if !p.at(token.BAR) {
				break
			}
			p.next()
		}
		return m, nil

	case token.LET:
		p.next()
		rec := false
		if p.at(token.REC) {
			p.next()
			rec = true
		}
		var binds []ast.Bind
		for {
			b, err := p.parseBind()
			if err != nil {
				return nil, err
			}
			binds = append(binds, b)
			if !p.at(token.AND) {
				break
			}
			p.next()
		}
		if _, err := p.expect(token.IN); err != nil {
			return nil, err
		}
		body, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Let{P: t.Pos, ID: p.newExpr(), Rec: rec, Binds: binds, Body: body}, nil
	}
	return nil, p.errf("expected expression, found %s", t)
}

// ---------------------------------------------------------------------------
// Patterns.
// ---------------------------------------------------------------------------

func (p *parser) parsePattern() (ast.Pattern, error) {
	return p.parseConsPat()
}

func (p *parser) parseConsPat() (ast.Pattern, error) {
	lhs, err := p.parseAtomPat()
	if err != nil {
		return nil, err
	}
	if p.at(token.CONS) {
		t := p.next()
		rhs, err := p.parseConsPat()
		if err != nil {
			return nil, err
		}
		return &ast.PCtor{P: t.Pos, ID: p.newPat(), Name: "::", Args: []ast.Pattern{lhs, rhs}}, nil
	}
	return lhs, nil
}

func (p *parser) parseAtomPat() (ast.Pattern, error) {
	t := p.cur()
	switch t.Kind {
	case token.UNDERSCORE:
		p.next()
		return &ast.PWild{P: t.Pos, ID: p.newPat()}, nil
	case token.IDENT:
		p.next()
		return &ast.PVar{P: t.Pos, ID: p.newPat(), Name: t.Text}, nil
	case token.INT:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, &Error{Pos: t.Pos, Msg: "integer literal out of range"}
		}
		return &ast.PInt{P: t.Pos, ID: p.newPat(), Val: v}, nil
	case token.MINUS:
		p.next()
		lit, err := p.expect(token.INT)
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseInt("-"+lit.Text, 10, 64)
		if err != nil {
			return nil, &Error{Pos: lit.Pos, Msg: "integer literal out of range"}
		}
		return &ast.PInt{P: t.Pos, ID: p.newPat(), Val: v}, nil
	case token.TRUE:
		p.next()
		return &ast.PBool{P: t.Pos, ID: p.newPat(), Val: true}, nil
	case token.FALSE:
		p.next()
		return &ast.PBool{P: t.Pos, ID: p.newPat(), Val: false}, nil
	case token.CTOR:
		p.next()
		c := &ast.PCtor{P: t.Pos, ID: p.newPat(), Name: t.Text}
		if p.patAtomStart() {
			arg, err := p.parseAtomPat()
			if err != nil {
				return nil, err
			}
			c.Args = []ast.Pattern{arg}
		}
		return c, nil
	case token.LPAREN:
		p.next()
		if p.at(token.RPAREN) {
			p.next()
			return &ast.PUnit{P: t.Pos, ID: p.newPat()}, nil
		}
		first, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		if p.at(token.COMMA) {
			elems := []ast.Pattern{first}
			for p.at(token.COMMA) {
				p.next()
				e, err := p.parsePattern()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
			}
			if _, err := p.expect(token.RPAREN); err != nil {
				return nil, err
			}
			return &ast.PTuple{P: t.Pos, ID: p.newPat(), Elems: elems}, nil
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
		return first, nil
	case token.LBRACKET:
		p.next()
		var elems []ast.Pattern
		if !p.at(token.RBRACKET) {
			for {
				e, err := p.parsePattern()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				if !p.at(token.SEMI) {
					break
				}
				p.next()
			}
		}
		if _, err := p.expect(token.RBRACKET); err != nil {
			return nil, err
		}
		var list ast.Pattern = &ast.PCtor{P: t.Pos, ID: p.newPat(), Name: "[]"}
		for i := len(elems) - 1; i >= 0; i-- {
			list = &ast.PCtor{P: elems[i].Pos(), ID: p.newPat(), Name: "::", Args: []ast.Pattern{elems[i], list}}
		}
		return list, nil
	}
	return nil, p.errf("expected pattern, found %s", t)
}

func (p *parser) patAtomStart() bool {
	switch p.cur().Kind {
	case token.UNDERSCORE, token.IDENT, token.INT, token.TRUE, token.FALSE,
		token.CTOR, token.LPAREN, token.LBRACKET:
		return true
	}
	return false
}

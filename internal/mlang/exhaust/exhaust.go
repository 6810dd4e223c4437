// Package exhaust implements pattern-match exhaustiveness and redundancy
// checking for MinML, using the classical usefulness construction
// (Maranget-style specialization/default matrices).
//
// Missing cases matter doubly in this system: a match failure is a runtime
// trap, and the §2.3 variant-record treatment relies on the compiler
// knowing exactly which constructors a scrutinee can carry. The checker
// reports a warning per inexhaustive match (with an example of an
// unmatched case) and per redundant arm.
package exhaust

import (
	"fmt"
	"strings"

	"tagfree/internal/mlang/ast"
	"tagfree/internal/mlang/token"
	"tagfree/internal/mlang/types"
)

// Warning is one diagnostic.
type Warning struct {
	Pos token.Pos
	Msg string
}

// String renders the warning.
func (w Warning) String() string { return fmt.Sprintf("%s: warning: %s", w.Pos, w.Msg) }

// Check analyzes every match expression in the program.
func Check(prog *ast.Program, info *types.Info) []Warning {
	c := &checker{info: info}
	ast.WalkExprs(prog, func(e ast.Expr) {
		if m, ok := e.(*ast.Match); ok {
			c.checkMatch(m)
		}
	})
	return c.warnings
}

type checker struct {
	info     *types.Info
	warnings []Warning
}

func (c *checker) warnf(pos token.Pos, format string, args ...any) {
	c.warnings = append(c.warnings, Warning{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) checkMatch(m *ast.Match) {
	scrutType := c.info.ExprType(m.Scrut)
	rows := make([]patRow, 0, len(m.Arms))
	for i, arm := range m.Arms {
		row := patRow{pats: []pat{c.convert(arm.Pat)}}
		if !useful(rows, row) {
			c.warnf(arm.P, "match arm %d is redundant: earlier arms cover it", i+1)
		}
		rows = append(rows, row)
	}
	witnessRow := patRow{pats: []pat{wildcardOf(c, scrutType)}}
	if w, isUseful := usefulWitness(rows, witnessRow); isUseful {
		c.warnf(m.P, "match is not exhaustive; for example %s is not matched", w[0])
	}
}

// ---------------------------------------------------------------------------
// Internal pattern form.
// ---------------------------------------------------------------------------

// pat is a normalized pattern: a wildcard or a constructor with subpatterns.
type pat struct {
	wild bool
	// head identifies the constructor: for datatypes the CtorInfo, for
	// tuples "(,)", for literals their spelling.
	head string
	// complete lists the full constructor set of the head's type when it is
	// finite (datatype constructors, bools, unit, tuples); nil for integers.
	complete []headInfo
	arity    int
	args     []pat
	// ty is carried on wildcards so witnesses can be typed.
	ty types.Type
}

// headInfo names one constructor of a complete signature.
type headInfo struct {
	name  string
	arity int
	// mkSub builds the wildcard subpatterns for a witness.
	subTypes []types.Type
}

func (p pat) String() string {
	if p.wild {
		return "_"
	}
	if p.head == "(,)" {
		parts := make([]string, len(p.args))
		for i, a := range p.args {
			parts[i] = a.String()
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	if p.head == "::" && len(p.args) == 2 {
		return p.args[0].String() + " :: " + p.args[1].String()
	}
	if len(p.args) == 0 {
		return p.head
	}
	parts := make([]string, len(p.args))
	for i, a := range p.args {
		parts[i] = a.String()
	}
	return p.head + " (" + strings.Join(parts, ", ") + ")"
}

type patRow struct{ pats []pat }

// convert normalizes an AST pattern.
func (c *checker) convert(p ast.Pattern) pat {
	switch p := p.(type) {
	case *ast.PWild:
		return pat{wild: true, ty: c.info.PatType(p)}
	case *ast.PVar:
		return pat{wild: true, ty: c.info.PatType(p)}
	case *ast.PUnit:
		return pat{head: "()", complete: []headInfo{{name: "()"}}}
	case *ast.PBool:
		name := "false"
		if p.Val {
			name = "true"
		}
		return pat{head: name, complete: boolSig()}
	case *ast.PInt:
		return pat{head: fmt.Sprint(p.Val)} // integers: open signature
	case *ast.PTuple:
		args := make([]pat, len(p.Elems))
		tys := make([]types.Type, len(p.Elems))
		for i, el := range p.Elems {
			args[i] = c.convert(el)
			tys[i] = c.info.PatType(el)
		}
		return pat{head: "(,)", arity: len(args), args: args,
			complete: []headInfo{{name: "(,)", arity: len(args), subTypes: tys}}}
	case *ast.PCtor:
		ci := c.info.PatCtor(p)
		inst := c.info.PatInst(p)
		argPats := p.Args
		if c.info.PatSplat(p) {
			argPats = argPats[0].(*ast.PTuple).Elems
		}
		args := make([]pat, len(argPats))
		for i, a := range argPats {
			args[i] = c.convert(a)
		}
		return pat{head: ci.Name, arity: len(ci.Args), args: args,
			complete: dataSig(ci.Data, inst)}
	}
	panic("convert: unreachable")
}

func boolSig() []headInfo {
	return []headInfo{{name: "true"}, {name: "false"}}
}

func dataSig(d *types.Data, inst []types.Type) []headInfo {
	out := make([]headInfo, 0, len(d.Ctors))
	for _, ci := range d.Ctors {
		out = append(out, headInfo{
			name:     ci.Name,
			arity:    len(ci.Args),
			subTypes: ci.Instantiate(inst),
		})
	}
	return out
}

// wildcardOf builds a typed wildcard for the scrutinee.
func wildcardOf(c *checker, t types.Type) pat {
	return pat{wild: true, ty: t}
}

// signatureOf returns the complete signature for a type, or nil when the
// type is open (integers, strings, functions, parametric positions).
func signatureOf(t types.Type) []headInfo {
	switch t := types.Resolve(t).(type) {
	case *types.Base:
		switch t.Kind {
		case types.BoolK:
			return boolSig()
		case types.UnitK:
			return []headInfo{{name: "()"}}
		}
		return nil
	case *types.TupleT:
		return []headInfo{{name: "(,)", arity: len(t.Elems), subTypes: t.Elems}}
	case *types.Con:
		if t.Data == nil {
			return nil // ref: treated as open (no ref patterns exist)
		}
		return dataSig(t.Data, t.Args)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Usefulness.
// ---------------------------------------------------------------------------

// useful reports whether row q matches some value no row of P matches.
func useful(P []patRow, q patRow) bool {
	_, u := usefulWitness(P, q)
	return u
}

// usefulWitness additionally produces an example value vector (as pattern
// strings) matched by q and none of P.
func usefulWitness(P []patRow, q patRow) ([]string, bool) {
	if len(q.pats) == 0 {
		if len(P) == 0 {
			return nil, true
		}
		return nil, false
	}
	first := q.pats[0]

	if !first.wild {
		// Specialize on first's constructor.
		Pspec := specialize(P, first.head, len(first.args))
		qspec := patRow{pats: append(append([]pat{}, first.args...), q.pats[1:]...)}
		w, u := usefulWitness(Pspec, qspec)
		if !u {
			return nil, false
		}
		return append([]string{rebuild(first, w[:len(first.args)])}, w[len(first.args):]...), true
	}

	// Wildcard: compare the constructors present in P's first column with
	// the column type's full signature. Specialization happens only when
	// the present set is complete (Maranget's condition — it also ensures
	// termination on recursive datatypes); otherwise the default matrix
	// applies and the witness names a missing constructor.
	sig := columnSignature(P, first)
	present := map[string]bool{}
	for _, row := range P {
		if p := row.pats[0]; !p.wild {
			present[p.head] = true
		}
	}
	complete := sig != nil
	if complete {
		for _, h := range sig {
			if !present[h.name] {
				complete = false
				break
			}
		}
	}

	if complete {
		for _, h := range sig {
			sub := make([]pat, h.arity)
			for i := range sub {
				var ty types.Type
				if i < len(h.subTypes) {
					ty = h.subTypes[i]
				}
				sub[i] = pat{wild: true, ty: ty}
			}
			Pspec := specialize(P, h.name, h.arity)
			qspec := patRow{pats: append(append([]pat{}, sub...), q.pats[1:]...)}
			if w, u := usefulWitness(Pspec, qspec); u {
				head := pat{head: h.name, arity: h.arity, args: sub}
				return append([]string{rebuild(head, w[:h.arity])}, w[h.arity:]...), true
			}
		}
		return nil, false
	}

	// Incomplete (or open) signature: the default matrix decides, and the
	// witness is a constructor absent from the column.
	Pdef := defaultMatrix(P)
	w, u := usefulWitness(Pdef, patRow{pats: q.pats[1:]})
	if !u {
		return nil, false
	}
	witness := "_"
	switch {
	case sig != nil:
		for _, h := range sig {
			if present[h.name] {
				continue
			}
			sub := make([]string, h.arity)
			for i := range sub {
				sub[i] = "_"
			}
			witness = rebuild(pat{head: h.name, arity: h.arity, args: make([]pat, h.arity)}, sub)
			break
		}
	case len(present) > 0:
		witness = openWitness(P, first)
	}
	return append([]string{witness}, w...), true
}

// columnSignature returns the full signature governing the first column,
// preferring the pattern's own type and falling back to the signature
// recorded on the column's constructor patterns.
func columnSignature(P []patRow, first pat) []headInfo {
	if sig := signatureOf(first.ty); sig != nil {
		return sig
	}
	for _, row := range P {
		p := row.pats[0]
		if !p.wild && p.complete != nil {
			return p.complete
		}
	}
	return nil
}

// specialize builds S(c, P).
func specialize(P []patRow, head string, arity int) []patRow {
	var out []patRow
	for _, row := range P {
		p := row.pats[0]
		switch {
		case p.wild:
			sub := make([]pat, arity)
			for i := range sub {
				sub[i] = pat{wild: true}
			}
			out = append(out, patRow{pats: append(sub, row.pats[1:]...)})
		case p.head == head:
			out = append(out, patRow{pats: append(append([]pat{}, p.args...), row.pats[1:]...)})
		}
	}
	return out
}

// defaultMatrix builds D(P).
func defaultMatrix(P []patRow) []patRow {
	var out []patRow
	for _, row := range P {
		if row.pats[0].wild {
			out = append(out, patRow{pats: row.pats[1:]})
		}
	}
	return out
}

// rebuild renders a constructor applied to witness strings.
func rebuild(head pat, args []string) string {
	if head.wild {
		return "_"
	}
	if head.head == "(,)" {
		return "(" + strings.Join(args, ", ") + ")"
	}
	if head.head == "::" && len(args) == 2 {
		a := args[0]
		if strings.Contains(a, "::") {
			a = "(" + a + ")"
		}
		return a + " :: " + args[1]
	}
	if len(args) == 0 {
		return head.head
	}
	return head.head + " (" + strings.Join(args, ", ") + ")"
}

// openWitness picks an example value outside the first-column literals
// (for integers: one more than the largest literal).
func openWitness(P []patRow, first pat) string {
	max := int64(-1 << 62)
	seen := false
	for _, row := range P {
		p := row.pats[0]
		if p.wild {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(p.head, "%d", &v); err == nil {
			seen = true
			if v > max {
				max = v
			}
		}
	}
	if seen {
		return fmt.Sprint(max + 1)
	}
	return "_"
}

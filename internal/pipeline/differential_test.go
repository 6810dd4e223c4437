package pipeline

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tagfree/internal/gc"
)

// Differential testing: generate random well-typed MinML programs, compute
// their results with a direct Go reference evaluator over the generator's
// own expression trees, and require every collector strategy (under a tiny
// heap, forcing collections) to agree with the reference.
//
// The generated language: integer expressions, let bindings, conditionals,
// integer lists (literals, cons, recursive sum/length/append/reverse via a
// fixed prelude), and first-order helper calls. Everything is deterministic
// given the seed.

// genExpr is the generator's expression tree, mirrored by the reference
// evaluator and by the MinML printer.
type genExpr interface{ gen() }

type gInt struct{ v int64 }
type gVar struct{ name string }
type gBin struct {
	op   string // + - *
	l, r genExpr
}
type gIf struct {
	cmp       string // < <= =
	a, b      genExpr
	then, els genExpr
}
type gLet struct {
	name string
	val  genExpr
	body genExpr
}
type gList struct{ elems []genExpr } // int list literal
type gSum struct{ list genExpr }     // sum of an int list
type gLen struct{ list genExpr }
type gRevSum struct{ list genExpr } // sum (rev xs) — churns the heap
type gAppendSum struct{ a, b genExpr }

// gMapSum is sum (map (fun v -> v*m + k) xs): a polymorphic higher-order
// chain — the construct behind the recursive-instantiation soundness bug.
type gMapSum struct {
	m, k int64
	list genExpr
}

// gPairSum is zipsum (map (fun v -> (v, v*m)) xs): tuples inside lists
// built by polymorphic map.
type gPairSum struct {
	m    int64
	list genExpr
}

func (gInt) gen()       {}
func (gVar) gen()       {}
func (gBin) gen()       {}
func (gIf) gen()        {}
func (gLet) gen()       {}
func (gList) gen()      {}
func (gSum) gen()       {}
func (gLen) gen()       {}
func (gRevSum) gen()    {}
func (gAppendSum) gen() {}
func (gMapSum) gen()    {}
func (gPairSum) gen()   {}

// genContext tracks int variables in scope.
type genContext struct {
	rng  *rand.Rand
	vars []string
	n    int
}

func (g *genContext) fresh() string {
	g.n++
	return fmt.Sprintf("v%d", g.n)
}

// intExpr generates an integer-typed expression.
func (g *genContext) intExpr(depth int) genExpr {
	if depth <= 0 {
		if len(g.vars) > 0 && g.rng.Intn(2) == 0 {
			return gVar{g.vars[g.rng.Intn(len(g.vars))]}
		}
		return gInt{int64(g.rng.Intn(21) - 10)}
	}
	switch g.rng.Intn(10) {
	case 0, 1:
		ops := []string{"+", "-", "*"}
		return gBin{ops[g.rng.Intn(3)], g.intExpr(depth - 1), g.intExpr(depth - 1)}
	case 2:
		cmps := []string{"<", "<=", "="}
		return gIf{cmps[g.rng.Intn(3)],
			g.intExpr(depth - 1), g.intExpr(depth - 1),
			g.intExpr(depth - 1), g.intExpr(depth - 1)}
	case 3:
		name := g.fresh()
		val := g.intExpr(depth - 1)
		g.vars = append(g.vars, name)
		body := g.intExpr(depth - 1)
		g.vars = g.vars[:len(g.vars)-1]
		return gLet{name, val, body}
	case 4:
		return gSum{g.listExpr(depth - 1)}
	case 5:
		return gLen{g.listExpr(depth - 1)}
	case 6:
		return gRevSum{g.listExpr(depth - 1)}
	case 7:
		return gAppendSum{g.listExpr(depth - 1), g.listExpr(depth - 1)}
	case 8:
		return gMapSum{int64(g.rng.Intn(5) - 2), int64(g.rng.Intn(9) - 4), g.listExpr(depth - 1)}
	default:
		return gPairSum{int64(g.rng.Intn(5) - 2), g.listExpr(depth - 1)}
	}
}

// listExpr generates an int-list literal of small size.
func (g *genContext) listExpr(depth int) genExpr {
	n := g.rng.Intn(5)
	elems := make([]genExpr, n)
	for i := range elems {
		d := depth - 1
		if d > 2 {
			d = 2
		}
		elems[i] = g.intExpr(d)
	}
	return gList{elems}
}

// refEval is the Go reference evaluator.
func refEval(e genExpr, env map[string]int64) int64 {
	switch e := e.(type) {
	case gInt:
		return e.v
	case gVar:
		return env[e.name]
	case gBin:
		l, r := refEval(e.l, env), refEval(e.r, env)
		switch e.op {
		case "+":
			return l + r
		case "-":
			return l - r
		default:
			return l * r
		}
	case gIf:
		a, b := refEval(e.a, env), refEval(e.b, env)
		var c bool
		switch e.cmp {
		case "<":
			c = a < b
		case "<=":
			c = a <= b
		default:
			c = a == b
		}
		if c {
			return refEval(e.then, env)
		}
		return refEval(e.els, env)
	case gLet:
		v := refEval(e.val, env)
		old, had := env[e.name]
		env[e.name] = v
		r := refEval(e.body, env)
		if had {
			env[e.name] = old
		} else {
			delete(env, e.name)
		}
		return r
	case gSum, gRevSum:
		var list genExpr
		if s, ok := e.(gSum); ok {
			list = s.list
		} else {
			list = e.(gRevSum).list
		}
		var t int64
		for _, el := range list.(gList).elems {
			t += refEval(el, env)
		}
		return t
	case gLen:
		return int64(len(e.list.(gList).elems))
	case gAppendSum:
		var t int64
		for _, el := range e.a.(gList).elems {
			t += refEval(el, env)
		}
		for _, el := range e.b.(gList).elems {
			t += refEval(el, env)
		}
		return t
	case gMapSum:
		var t int64
		for _, el := range e.list.(gList).elems {
			t += refEval(el, env)*e.m + e.k
		}
		return t
	case gPairSum:
		var t int64
		for _, el := range e.list.(gList).elems {
			v := refEval(el, env)
			t += v + v*e.m
		}
		return t
	}
	panic("refEval: unreachable")
}

// render prints the expression as MinML source.
func render(e genExpr, b *strings.Builder) {
	switch e := e.(type) {
	case gInt:
		if e.v < 0 {
			fmt.Fprintf(b, "(0 - %d)", -e.v)
		} else {
			fmt.Fprintf(b, "%d", e.v)
		}
	case gVar:
		b.WriteString(e.name)
	case gBin:
		b.WriteByte('(')
		render(e.l, b)
		fmt.Fprintf(b, " %s ", e.op)
		render(e.r, b)
		b.WriteByte(')')
	case gIf:
		b.WriteString("(if ")
		render(e.a, b)
		fmt.Fprintf(b, " %s ", e.cmp)
		render(e.b, b)
		b.WriteString(" then ")
		render(e.then, b)
		b.WriteString(" else ")
		render(e.els, b)
		b.WriteByte(')')
	case gLet:
		fmt.Fprintf(b, "(let %s = ", e.name)
		render(e.val, b)
		b.WriteString(" in ")
		render(e.body, b)
		b.WriteByte(')')
	case gList:
		b.WriteByte('[')
		for i, el := range e.elems {
			if i > 0 {
				b.WriteString("; ")
			}
			render(el, b)
		}
		b.WriteByte(']')
	case gSum:
		b.WriteString("(sum ")
		render(e.list, b)
		b.WriteByte(')')
	case gLen:
		b.WriteString("(length ")
		render(e.list, b)
		b.WriteByte(')')
	case gRevSum:
		b.WriteString("(sum (rev ")
		render(e.list, b)
		b.WriteString("))")
	case gAppendSum:
		b.WriteString("(sum (append ")
		render(e.a, b)
		b.WriteByte(' ')
		render(e.b, b)
		b.WriteString("))")
	case gMapSum:
		fmt.Fprintf(b, "(sum (map (fun v -> v * %s + %s) ", renderInt(e.m), renderInt(e.k))
		render(e.list, b)
		b.WriteString("))")
	case gPairSum:
		fmt.Fprintf(b, "(zipsum (map (fun v -> (v, v * %s)) ", renderInt(e.m))
		render(e.list, b)
		b.WriteString("))")
	}
}

// renderInt prints a possibly negative literal safely.
func renderInt(v int64) string {
	if v < 0 {
		return fmt.Sprintf("(0 - %d)", -v)
	}
	return fmt.Sprint(v)
}

const diffPrelude = `
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec length xs = match xs with | [] -> 0 | _ :: r -> 1 + length r
let rec append xs ys = match xs with | [] -> ys | x :: r -> x :: append r ys
let rec rev xs = match xs with | [] -> [] | x :: r -> append (rev r) [x]
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec zipsum ps = match ps with | [] -> 0 | (a, b) :: r -> a + b + zipsum r
`

func TestDifferentialRandomPrograms(t *testing.T) {
	const programs = 120
	for seed := 0; seed < programs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := &genContext{rng: rng}
		expr := g.intExpr(4)
		want := refEval(expr, map[string]int64{})

		var b strings.Builder
		b.WriteString(diffPrelude)
		b.WriteString("let main () = ")
		render(expr, &b)
		b.WriteByte('\n')
		src := b.String()

		for _, strat := range Strategies {
			res, err := Run(src, Options{Strategy: strat, HeapWords: 512, MaxSteps: 10_000_000})
			if err != nil {
				t.Fatalf("seed %d [%v]: %v\nprogram:\n%s", seed, strat, err, src)
			}
			if res.Value != want {
				t.Fatalf("seed %d [%v]: got %d, reference %d\nprogram:\n%s",
					seed, strat, res.Value, want, src)
			}
		}
		// Mark/sweep, 0-CFA elision, and their combination as extra
		// configurations.
		for _, extra := range []Options{
			{Strategy: gc.StratCompiled, HeapWords: 512, MarkSweep: true, MaxSteps: 10_000_000},
			{Strategy: gc.StratCompiled, HeapWords: 512, UseCFA: true, MaxSteps: 10_000_000},
			{Strategy: gc.StratCompiled, HeapWords: 512, MarkSweep: true, UseCFA: true, MaxSteps: 10_000_000},
		} {
			res, err := Run(src, extra)
			if err != nil {
				t.Fatalf("seed %d [ms=%v cfa=%v]: %v\nprogram:\n%s",
					seed, extra.MarkSweep, extra.UseCFA, err, src)
			}
			if res.Value != want {
				t.Fatalf("seed %d [ms=%v cfa=%v]: got %d, reference %d\nprogram:\n%s",
					seed, extra.MarkSweep, extra.UseCFA, res.Value, want, src)
			}
		}
	}
}

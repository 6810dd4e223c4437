package pipeline

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tagfree/internal/gc"
)

// Datatype-shape fuzzing: generate a random variant type (random numbers
// of nullary and boxed constructors, with int and recursive fields), a
// random deep value of it, and a checksum fold over all constructors. The
// value is kept live across heap churn, so every collector must trace the
// variant representation correctly — including the tagless-sum layout when
// the type has at most one boxed constructor — for the checksum to
// survive. The reference checksum is computed on the generator's own tree.

type dtShape struct {
	nullary int // 1..3 constructors N0..
	boxed   []dtCtor
}

type dtCtor struct {
	name   string
	fields []byte // 'i' int field, 'r' recursive field
}

// dtValue is a generated value of the shape.
type dtValue struct {
	nullaryTag int        // >= 0 when nullary
	boxedIdx   int        // index into shape.boxed when nullaryTag < 0
	ints       []int64    // values for 'i' fields, in order
	recs       []*dtValue // values for 'r' fields, in order
}

func genShape(rng *rand.Rand) dtShape {
	s := dtShape{nullary: 1 + rng.Intn(3)}
	nBoxed := 1 + rng.Intn(3)
	for i := 0; i < nBoxed; i++ {
		nf := 1 + rng.Intn(3)
		fields := make([]byte, nf)
		hasRec := false
		for j := range fields {
			if rng.Intn(2) == 0 {
				fields[j] = 'i'
			} else {
				fields[j] = 'r'
				hasRec = true
			}
		}
		_ = hasRec
		s.boxed = append(s.boxed, dtCtor{name: fmt.Sprintf("B%d", i), fields: fields})
	}
	return s
}

func (s dtShape) decl() string {
	var parts []string
	for i := 0; i < s.nullary; i++ {
		parts = append(parts, fmt.Sprintf("N%d", i))
	}
	for _, c := range s.boxed {
		var fs []string
		for _, f := range c.fields {
			if f == 'i' {
				fs = append(fs, "int")
			} else {
				fs = append(fs, "t")
			}
		}
		parts = append(parts, fmt.Sprintf("%s of %s", c.name, strings.Join(fs, " * ")))
	}
	return "type t = " + strings.Join(parts, " | ")
}

// chkFn generates the checksum fold: distinct coefficients per
// constructor and field position keep structural mistakes visible.
func (s dtShape) chkFn() string {
	var b strings.Builder
	b.WriteString("let rec chk v =\n  match v with\n")
	for i := 0; i < s.nullary; i++ {
		fmt.Fprintf(&b, "  | N%d -> %d\n", i, i+1)
	}
	for ci, c := range s.boxed {
		var binds []string
		for fi := range c.fields {
			binds = append(binds, fmt.Sprintf("f%d", fi))
		}
		pat := c.name
		if len(binds) == 1 {
			pat += " " + binds[0]
		} else {
			pat += " (" + strings.Join(binds, ", ") + ")"
		}
		expr := fmt.Sprint(100 * (ci + 1))
		for fi, f := range c.fields {
			if f == 'i' {
				expr += fmt.Sprintf(" + f%d * %d", fi, fi+3)
			} else {
				expr += fmt.Sprintf(" + chk f%d * %d", fi, fi+7)
			}
		}
		fmt.Fprintf(&b, "  | %s -> %s\n", pat, expr)
	}
	return b.String()
}

func genValue(rng *rand.Rand, s dtShape, depth int) *dtValue {
	if depth <= 0 || rng.Intn(4) == 0 {
		return &dtValue{nullaryTag: rng.Intn(s.nullary)}
	}
	ci := rng.Intn(len(s.boxed))
	v := &dtValue{nullaryTag: -1, boxedIdx: ci}
	for _, f := range s.boxed[ci].fields {
		if f == 'i' {
			v.ints = append(v.ints, int64(rng.Intn(50)))
		} else {
			v.recs = append(v.recs, genValue(rng, s, depth-1))
		}
	}
	return v
}

func (v *dtValue) render(s dtShape) string {
	if v.nullaryTag >= 0 {
		return fmt.Sprintf("N%d", v.nullaryTag)
	}
	c := s.boxed[v.boxedIdx]
	var args []string
	ii, ri := 0, 0
	for _, f := range c.fields {
		if f == 'i' {
			args = append(args, fmt.Sprint(v.ints[ii]))
			ii++
		} else {
			args = append(args, v.recs[ri].render(s))
			ri++
		}
	}
	if len(args) == 1 {
		return fmt.Sprintf("%s (%s)", c.name, args[0])
	}
	return fmt.Sprintf("%s (%s)", c.name, strings.Join(args, ", "))
}

func (v *dtValue) checksum(s dtShape) int64 {
	if v.nullaryTag >= 0 {
		return int64(v.nullaryTag) + 1
	}
	c := s.boxed[v.boxedIdx]
	sum := int64(100 * (v.boxedIdx + 1))
	ii, ri := 0, 0
	for fi, f := range c.fields {
		if f == 'i' {
			sum += v.ints[ii] * int64(fi+3)
			ii++
		} else {
			sum += v.recs[ri].checksum(s) * int64(fi+7)
			ri++
		}
	}
	return sum
}

func TestDatatypeShapeFuzz(t *testing.T) {
	const shapes = 60
	for seed := 0; seed < shapes; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		shape := genShape(rng)
		value := genValue(rng, shape, 5)
		want := value.checksum(shape)

		src := fmt.Sprintf(`%s
%s
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let blip n = (let _ = upto 12 in 0)
let rec churn n = if n = 0 then 0 else blip n + churn (n - 1)
let main () =
  let v = %s in
  let _ = churn 60 in
  chk v
`, shape.decl(), shape.chkFn(), value.render(shape))

		for _, strat := range Strategies {
			res, err := Run(src, Options{Strategy: strat, HeapWords: 512, MaxSteps: 10_000_000, VerifyHeap: true})
			if err != nil {
				t.Fatalf("seed %d [%v]: %v\nprogram:\n%s", seed, strat, err, src)
			}
			if res.Value != want {
				t.Fatalf("seed %d [%v]: got %d, reference %d\nprogram:\n%s",
					seed, strat, res.Value, want, src)
			}
			if res.HeapStats.Collections == 0 {
				t.Fatalf("seed %d: churn did not force a collection", seed)
			}
		}
		// Mark/sweep configuration.
		res, err := Run(src, Options{Strategy: gc.StratCompiled, HeapWords: 512,
			MarkSweep: true, MaxSteps: 10_000_000, VerifyHeap: true})
		if err != nil {
			t.Fatalf("seed %d [ms]: %v", seed, err)
		}
		if res.Value != want {
			t.Fatalf("seed %d [ms]: got %d, reference %d\nprogram:\n%s", seed, res.Value, want, src)
		}
	}
}

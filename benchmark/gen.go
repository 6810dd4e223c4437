package main

// Workload generators. Each takes the run's seed and a size scale and
// returns MinML source, the entry functions, and every entry's expected
// result computed here in Go — closed forms or a direct re-implementation
// of the template, never the compiler under test.
//
// The seed picks constants, element values, operand order and template
// rotation; structure sizes and iteration counts depend only on the scale.
// That keeps the amount of work the same from seed to seed (so a time is
// comparable across seeds) while every seed still yields a different
// program with different answers.

import (
	"fmt"
	"math/rand"
	"strings"
)

// modP bounds every accumulated value: far inside 62 bits, so the tagged
// strategy (63-bit integers) computes the same answers as the tag-free ones.
const modP = 1000003

// program is one generated workload input.
type program struct {
	source  string
	entries []string // task entry points; {"main"} for single-task programs
	expect  []int64  // aligned with entries
}

func scaled(n int, scale float64) int {
	if v := int(float64(n)*scale + 0.5); v > 1 {
		return v
	}
	return 1
}

// between returns a seeded integer in [lo, hi].
func between(r *rand.Rand, lo, hi int64) int64 { return lo + r.Int63n(hi-lo+1) }

// sumTerms joins call terms with " + " in a seeded order.
func sumTerms(r *rand.Rand, terms []string) string {
	r.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	return strings.Join(terms, " + ")
}

// uptoSum is sum (upto n b): the list (n+b), (n-1+b), ..., (1+b).
func uptoSum(n, b int64) int64 { return n*(n+1)/2 + n*b }

// ---------------------------------------------------------------------------
// calls: call-heavy arithmetic, zero allocation.
// ---------------------------------------------------------------------------

func genCalls(seed int64, scale float64) program {
	r := rand.New(rand.NewSource(seed))
	fa, fb := between(r, 1, 90), between(r, 0, 90)
	shift := between(r, 0, 40) // tak is translation-invariant: same call tree, shifted result
	e1, e0 := between(r, 1, 500), between(r, 1, 500)
	la, lb, lm := between(r, 3, 97), between(r, 1, 97), between(r, 50000, 65000)
	lc := between(r, 0, 1000)
	s0 := between(r, 0, 1000)
	const fibN, evenN, lcgN, innerN = 24, 2000, 500, 15
	outerN := scaled(2, scale)

	step := sumTerms(r, []string{
		fmt.Sprintf("fib %d", fibN),
		fmt.Sprintf("tak %d %d %d", 18+shift, 12+shift, 6+shift),
		fmt.Sprintf("even %d", evenN),
		fmt.Sprintf("lcg %d (j + %d)", lcgN, lc),
	})
	src := fmt.Sprintf(`
let rec fib n = if n < 2 then n * %d + %d else fib (n - 1) + fib (n - 2)
let rec tak x y z =
  if y >= x then z
  else tak (tak (x - 1) y z) (tak (y - 1) z x) (tak (z - 1) x y)
let rec even n = if n = 0 then %d else odd (n - 1)
and odd n = if n = 0 then %d else even (n - 1)
let rec lcg i acc = if i = 0 then acc else lcg (i - 1) ((acc * %d + %d) mod %d)
let step j = %s
let rec inner j acc = if j = 0 then acc else inner (j - 1) ((acc + step j) mod %d)
let rec outer i acc = if i = 0 then acc else outer (i - 1) (inner %d acc)
let main () = outer %d %d
`, fa, fb, e1, e0, la, lb, lm, step, modP, innerN, outerN, s0)

	f0, f1 := fb, fa+fb
	for i := 2; i <= fibN; i++ {
		f0, f1 = f1, f0+f1
	}
	var tak func(x, y, z int64) int64
	tak = func(x, y, z int64) int64 {
		if y >= x {
			return z
		}
		return tak(tak(x-1, y, z), tak(y-1, z, x), tak(z-1, x, y))
	}
	fixed := f1 + tak(18+shift, 12+shift, 6+shift) + e1 // evenN is even
	acc := s0
	for i := 0; i < outerN; i++ {
		for j := int64(innerN); j > 0; j-- {
			l := j + lc
			for k := 0; k < lcgN; k++ {
				l = (l*la + lb) % lm
			}
			acc = (acc + fixed + l) % modP
		}
	}
	return program{source: src, entries: []string{"main"}, expect: []int64{acc}}
}

// ---------------------------------------------------------------------------
// churn: the corpus's allocation-heavy shapes, tiny live set.
// ---------------------------------------------------------------------------

// stepMod is how many distinct round arguments churn cycles through.
const stepMod = 11

func genChurn(seed int64, scale float64) program {
	r := rand.New(rand.NewSource(seed))
	p := func(lo, hi int64) int64 { return between(r, lo, hi) }
	a1, b1 := p(0, 50), p(0, 50)
	c1, c2, c3, a2 := p(1, 9), p(2, 40), p(1, 9), p(0, 50)
	e1, e2, e3, a3 := p(2, 3), p(1, 9), p(1, 9), p(1, 20)
	b4, m4, k4 := p(0, 50), p(2, 9), p(0, 50)
	p1, p2, p3 := p(2, 9), p(0, 20), p(0, 20)
	z6, a6 := p(0, 100), p(0, 50)
	z7 := p(0, 100)
	s0 := p(0, 1000)
	const innerN = 25
	outerN := scaled(25, scale)

	step := sumTerms(r, []string{"r_list i", "r_tree i", "r_expr i", "r_clos i", "r_poly i", "r_cps i", "r_ref i"})
	src := fmt.Sprintf(`
type tree = Leaf | Node of tree * int * tree
type expr =
  | Num of int
  | Add of expr * expr
  | Mul of expr * expr
  | Neg of expr
  | IfPos of expr * expr * expr
let rec append xs ys = match xs with | [] -> ys | x :: r -> x :: append r ys
let rec rev xs = match xs with | [] -> [] | x :: r -> append (rev r) [x]
let rec upto n b = if n = 0 then [] else (n + b) :: upto (n - 1) b
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec foldl f acc xs = match xs with | [] -> acc | x :: r -> foldl f (f acc x) r
let rec wsum xs i = match xs with | [] -> 0 | x :: r -> i * x + wsum r (i + 1)
let r_list i = wsum (rev (append (upto 40 (i + %d)) (upto 50 %d))) 1

let rec build d v =
  if d = 0 then Leaf
  else Node (build (d - 1) (v + %d), (v * %d) mod 97, build (d - 1) (v + %d))
let rec tsum t = match t with | Leaf -> 0 | Node (l, v, r) -> tsum l + v + tsum r
let r_tree i = tsum (build 7 (i + %d))

let rec eval e =
  match e with
  | Num n -> n
  | Add (a, b) -> eval a + eval b
  | Mul (a, b) -> eval a * eval b
  | Neg a -> 0 - eval a
  | IfPos (c, t, f) -> if eval c > 0 then eval t else eval f
let rec grow d k =
  if d = 0 then Num k
  else Add (Mul (Num %d, grow (d - 1) k), IfPos (Num %d, grow (d - 1) (k + 1), Neg (Num %d)))
let r_expr i = eval (grow 6 (i + %d))

let add a b = a + b
let compose f g = fun x -> f (g x)
let rec apply_all fs x = match fs with | [] -> x | f :: r -> apply_all r (f x)
let r_clos i = apply_all (map add (upto 20 %d)) (compose (fun x -> x * %d) (fun x -> x + %d) i)

let rec zipsum ps = match ps with | [] -> 0 | (a, b) :: r -> a + b + zipsum r
let r_poly i =
  let ints = map (fun x -> x * %d) (upto 20 i) in
  let pairs = map (fun x -> (x, x * x)) (upto 10 %d) in
  let flags = map (fun x -> x mod 2 = 0) (upto 8 i) in
  let nested = map (fun x -> [x; x + i]) (upto 6 %d) in
  foldl (fun a b -> a + b) 0 ints
    + zipsum pairs
    + foldl (fun a b -> if b then a + 1 else a) 0 flags
    + foldl (fun a l -> a + (match l with | x :: _ -> x | [] -> 0)) 0 nested

let rec sumk xs k =
  match xs with
  | [] -> k %d
  | x :: r -> sumk r (fun s -> k (x + s))
let r_cps i = sumk (upto 30 (i + %d)) (fun s -> s)

let rec each f xs = match xs with | [] -> () | x :: r -> (let _ = f x in each f r)
let r_ref i =
  let acc = ref %d in
  let bump x = acc := !acc + x in
  each bump (upto 25 i);
  !acc

let step i = (%s) mod %d
let rec inner j acc = if j = 0 then acc else inner (j - 1) ((acc + step (j mod %d)) mod %d)
let rec outer i acc = if i = 0 then acc else outer (i - 1) (inner %d acc)
let main () = outer %d %d
`, a1, b1, c1, c2, c3, a2, e1, e2, e3, a3, b4, m4, k4, p1, p2, p3, z6, a6, z7,
		step, modP, stepMod, modP, innerN, outerN, s0)

	upto := func(n, b int64) []int64 {
		xs := make([]int64, 0, n)
		for ; n > 0; n-- {
			xs = append(xs, n+b)
		}
		return xs
	}
	rList := func(i int64) int64 {
		xs := append(upto(40, i+a1), upto(50, b1)...)
		var s int64
		for k := range xs { // reversed, weighted by 1-based position
			s += int64(k+1) * xs[len(xs)-1-k]
		}
		return s
	}
	var tree func(d, v int64) int64
	tree = func(d, v int64) int64 {
		if d == 0 {
			return 0
		}
		return tree(d-1, v+c1) + (v*c2)%97 + tree(d-1, v+c3)
	}
	var expr func(d, k int64) int64 // eval (grow d k); e2 > 0 so IfPos takes its first arm
	expr = func(d, k int64) int64 {
		if d == 0 {
			return k
		}
		return e1*expr(d-1, k) + expr(d-1, k+1)
	}
	rPoly := func(i int64) int64 {
		var s int64
		for _, x := range upto(20, i) {
			s += x * p1
		}
		for _, x := range upto(10, p2) {
			s += x + x*x
		}
		for _, x := range upto(8, i) {
			if x%2 == 0 {
				s++
			}
		}
		for _, x := range upto(6, p3) {
			s += x
		}
		return s
	}
	var steps [stepMod]int64
	for i := int64(0); i < stepMod; i++ {
		steps[i] = (rList(i) + tree(7, i+a2) + expr(6, i+a3) +
			(i+k4)*m4 + uptoSum(20, b4) + rPoly(i) +
			z6 + uptoSum(30, i+a6) + z7 + uptoSum(25, i)) % modP
	}
	acc := s0
	for i := 0; i < outerN; i++ {
		for j := innerN; j > 0; j-- {
			acc = (acc + steps[j%stepMod]) % modP
		}
	}
	return program{source: src, entries: []string{"main"}, expect: []int64{acc}}
}

// ---------------------------------------------------------------------------
// resident: four tasks, each holding a large tree and pair list.
// ---------------------------------------------------------------------------

func genResident(seed int64, scale float64) program {
	r := rand.New(rand.NewSource(seed))
	ta, tm := between(r, 3, 97), between(r, 50000, 65000)
	const treeDepth, pairs, spinN, midN = 12, 1900, 50, 20
	topN := scaled(14, scale)
	var b strings.Builder
	fmt.Fprintf(&b, `
type tree = Leaf | Node of tree * int * tree
let rec build d s =
  if d = 0 then Leaf
  else Node (build (d - 1) ((s * %d + 1) mod %d), s, build (d - 1) ((s * %d + 2) mod %d))
let rec tsum t = match t with | Leaf -> 0 | Node (l, v, r) -> (tsum l + v + tsum r) mod %d
let rec mkpairs n s = if n = 0 then [] else (n, (s * n) mod %d) :: mkpairs (n - 1) s
let rec psum ps = match ps with | [] -> 0 | (a, b) :: r -> (a + b + psum r) mod %d
let rec upto n b = if n = 0 then [] else (n + b) :: upto (n - 1) b
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec spin n acc = if n = 0 then acc else spin (n - 1) ((acc + sum (upto 30 n)) mod %d)
let rec mid n acc = if n = 0 then acc else mid (n - 1) (spin %d acc)
let rec top n acc = if n = 0 then acc else top (n - 1) (mid %d acc)
let work s =
  let t = build %d s in
  let ps = mkpairs %d s in
  let c = top %d s in
  (c + tsum t + psum ps) mod %d
`, ta, tm, ta, tm, modP, tm, modP, modP, spinN, midN, treeDepth, pairs, topN, modP)

	var tree func(d, s int64) int64
	tree = func(d, s int64) int64 {
		if d == 0 {
			return 0
		}
		return (tree(d-1, (s*ta+1)%tm) + s + tree(d-1, (s*ta+2)%tm)) % modP
	}
	prog := program{}
	for i := 0; i < 4; i++ {
		s := between(r, 1, 40000)
		name := fmt.Sprintf("task_%c", 'a'+i)
		fmt.Fprintf(&b, "let %s () = work %d\n", name, s)

		acc := s
		for k := 0; k < topN*midN; k++ {
			for n := int64(spinN); n > 0; n-- {
				acc = (acc + uptoSum(30, n)) % modP
			}
		}
		var ps int64
		for n := int64(1); n <= pairs; n++ {
			ps += n + (s*n)%tm
		}
		prog.entries = append(prog.entries, name)
		prog.expect = append(prog.expect, (acc+tree(treeDepth, s)+ps%modP)%modP)
	}
	prog.source = b.String()
	return prog
}

// ---------------------------------------------------------------------------
// polystack: deep towers of one polymorphic frame at four instantiations.
// ---------------------------------------------------------------------------

func genPolystack(seed int64, scale float64) program {
	r := rand.New(rand.NewSource(seed))
	const depth, innerN = 640, 30
	outerN := scaled(23, scale)
	k := between(r, 0, 500)
	v := func() int64 { return between(r, 1, 999) }
	args := []string{
		fmt.Sprintf("(%d, true)", v()),
		fmt.Sprintf("[%d]", v()),
		fmt.Sprintf("%d", v()),
		fmt.Sprintf("((%d, %d), [%d])", v(), v(), v()),
	}
	var b strings.Builder
	fmt.Fprintf(&b, `
let probe x = (let _ = [x; x] in 1)
let rec pdepth x acc n =
  if n = 0 then acc
  else probe x + pdepth x acc (n - 1)
let rec towers x n acc = if n = 0 then acc else towers x (n - 1) ((acc + pdepth x %d %d) mod %d)
let rec groups x n acc = if n = 0 then acc else groups x (n - 1) (towers x %d acc)
`, k, depth, modP, innerN)
	prog := program{}
	for i, arg := range args {
		s := between(r, 0, 1000)
		name := fmt.Sprintf("tower_%c", 'a'+i)
		fmt.Fprintf(&b, "let %s () = groups %s %d %d\n", name, arg, outerN, s)
		acc := s
		for n := 0; n < outerN*innerN; n++ {
			acc = (acc + k + depth) % modP
		}
		prog.entries = append(prog.entries, name)
		prog.expect = append(prog.expect, acc)
	}
	prog.source = b.String()
	return prog
}

// ---------------------------------------------------------------------------
// taskmix: eight tasks repointing long-lived ref cells at fresh lists.
// ---------------------------------------------------------------------------

func genTaskmix(seed int64, scale float64) program {
	r := rand.New(rand.NewSource(seed))
	const cells, listN, churnN, innerN = 10, 12, 20, 30
	outerN := scaled(36, scale)
	var b strings.Builder
	fmt.Fprintf(&b, `
let rec upto n b = if n = 0 then [] else (n + b) :: upto (n - 1) b
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec mkcells n = if n = 0 then [] else ref [n] :: mkcells (n - 1)
let rec refresh cells k b =
  match cells with
  | [] -> 0
  | c :: r -> (let _ = (c := upto k b) in 1 + refresh r k b)
let rec harvest cells = match cells with | [] -> 0 | c :: r -> (sum (!c) + harvest r) mod %d
let rec cycle cells n b acc =
  if n = 0 then acc
  else (let _ = refresh cells %d (n + b) in
        cycle cells (n - 1) b ((acc + harvest cells + sum (upto %d n)) mod %d))
let rec rounds cells n b acc = if n = 0 then acc else rounds cells (n - 1) b (cycle cells %d b acc)
let work s b = (let cells = mkcells %d in rounds cells %d b s)
`, modP, listN, churnN, modP, innerN, cells, outerN)
	prog := program{}
	for i := 0; i < 8; i++ {
		s, off := between(r, 0, 9000), between(r, 0, 60)
		name := fmt.Sprintf("mut_%c", 'a'+i)
		fmt.Fprintf(&b, "let %s () = work %d %d\n", name, s, off)
		acc := s
		for k := 0; k < outerN; k++ {
			for n := int64(innerN); n > 0; n-- {
				acc = (acc + cells*uptoSum(listN, n+off) + uptoSum(churnN, n)) % modP
			}
		}
		prog.entries = append(prog.entries, name)
		prog.expect = append(prog.expect, acc)
	}
	prog.source = b.String()
	return prog
}

// ---------------------------------------------------------------------------
// serve: four request classes of list churn, sampled open-loop.
// ---------------------------------------------------------------------------

func genServe(seed int64) program {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	fmt.Fprintf(&b, `
let rec upto n b = if n = 0 then [] else (n + b) :: upto (n - 1) b
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec work rounds acc b =
  if rounds = 0 then acc
  else work (rounds - 1) ((acc + sum (upto 25 (b + rounds))) mod %d) b
`, modP)
	prog := program{}
	for _, c := range []struct {
		name   string
		rounds int64
	}{{"req_tiny", 2}, {"req_small", 8}, {"req_medium", 24}, {"req_heavy", 96}} {
		s, off := between(r, 0, 9000), between(r, 0, 60)
		fmt.Fprintf(&b, "let %s () = work %d %d %d\n", c.name, c.rounds, s, off)
		acc := s
		for n := c.rounds; n > 0; n-- {
			acc = (acc + uptoSum(25, off+n)) % modP
		}
		prog.entries = append(prog.entries, c.name)
		prog.expect = append(prog.expect, acc)
	}
	prog.source = b.String()
	return prog
}

// ---------------------------------------------------------------------------
// compile: one large source of datatype + function groups.
// ---------------------------------------------------------------------------

// compileGroupKinds is the number of group templates; group g uses template
// (g + rotation) mod compileGroupKinds, so every seed has the same template
// proportions in a different arrangement.
const compileGroupKinds = 3

// compileChecks is how many groups main calls to prove the build right.
const compileChecks = 48

func genCompile(seed int64, scale float64) program {
	r := rand.New(rand.NewSource(seed))
	groups := scaled(800, scale)
	rot := int(between(r, 0, compileGroupKinds-1))
	checks := make([]int64, groups)
	var b strings.Builder
	b.Grow(groups * 640)
	for g := 0; g < groups; g++ {
		a, c, d, e := between(r, 1, 9), between(r, 2, 40), between(r, 1, 9), between(r, 2, 9)
		s, f, h := between(r, 0, 50), between(r, 0, 90), between(r, 0, 90)
		switch (g + rot) % compileGroupKinds {
		case 0: // recursive variant + polymorphic map + closure
			fmt.Fprintf(&b, `
type t%[1]d = L%[1]d | N%[1]d of t%[1]d * int * t%[1]d
let rec build%[1]d d v =
  if d = 0 then L%[1]d
  else N%[1]d (build%[1]d (d - 1) (v + %[2]d), (v * %[3]d) mod 97, build%[1]d (d - 1) (v + %[4]d))
let rec fold%[1]d t = match t with | L%[1]d -> 0 | N%[1]d (l, v, r) -> fold%[1]d l + v + fold%[1]d r
let rec map%[1]d f xs = match xs with | [] -> [] | x :: r -> f x :: map%[1]d f r
let rec sum%[1]d xs = match xs with | [] -> 0 | x :: r -> x + sum%[1]d r
let mk%[1]d a = fun x -> x * a + %[5]d
let check%[1]d () = fold%[1]d (build%[1]d 3 %[6]d) + sum%[1]d (map%[1]d (mk%[1]d %[7]d) [%[8]d; %[9]d])
`, g, a, c, d, e, s, e, f, h)
			var tree func(d, v int64) int64
			tree = func(dd, v int64) int64 {
				if dd == 0 {
					return 0
				}
				return tree(dd-1, v+a) + (v*c)%97 + tree(dd-1, v+d)
			}
			checks[g] = tree(3, s) + (f*e + e) + (h*e + e)
		case 1: // expression variant + evaluator + match on pairs
			fmt.Fprintf(&b, `
type e%[1]d = K%[1]d of int | A%[1]d of e%[1]d * e%[1]d | M%[1]d of e%[1]d * e%[1]d | G%[1]d of e%[1]d
let rec ev%[1]d x =
  match x with
  | K%[1]d n -> n
  | A%[1]d (p, q) -> ev%[1]d p + ev%[1]d q
  | M%[1]d (p, q) -> ev%[1]d p * ev%[1]d q
  | G%[1]d p -> 0 - ev%[1]d p
let rec gr%[1]d d k =
  if d = 0 then K%[1]d k
  else A%[1]d (M%[1]d (K%[1]d %[2]d, gr%[1]d (d - 1) k), G%[1]d (gr%[1]d (d - 1) (k + %[3]d)))
let swap%[1]d p = match p with | (x, y) -> (y, x)
let fst%[1]d p = match p with | (x, _) -> x
let pick%[1]d b x y = if b then x else y
let check%[1]d () = ev%[1]d (gr%[1]d 3 %[4]d) + fst%[1]d (swap%[1]d (%[5]d, pick%[1]d (%[6]d > %[7]d) %[8]d %[9]d))
`, g, a, d, s, c, f, h, e, a+e)
			var ev func(d, k int64) int64
			ev = func(dd, k int64) int64 {
				if dd == 0 {
					return k
				}
				return a*ev(dd-1, k) - ev(dd-1, k+d)
			}
			pick := a + e
			if f > h {
				pick = e
			}
			checks[g] = ev(3, s) + pick
		default: // polymorphic container + option + fold with closure
			fmt.Fprintf(&b, `
type 'a w%[1]d = E%[1]d | C%[1]d of 'a * 'a w%[1]d
type 'a o%[1]d = No%[1]d | So%[1]d of 'a
let rec push%[1]d n v = if n = 0 then E%[1]d else C%[1]d (v + n, push%[1]d (n - 1) v)
let rec fold%[1]d f acc w = match w with | E%[1]d -> acc | C%[1]d (x, r) -> fold%[1]d f (f acc x) r
let rec find%[1]d p w = match w with | E%[1]d -> No%[1]d | C%[1]d (x, r) -> if p x then So%[1]d x else find%[1]d p r
let get%[1]d o d = match o with | No%[1]d -> d | So%[1]d x -> x
let check%[1]d () =
  let w = push%[1]d %[2]d %[3]d in
  fold%[1]d (fun a x -> a + x * %[4]d) 0 w + get%[1]d (find%[1]d (fun x -> x < %[5]d) w) %[6]d
`, g, a+2, s, e, s+d, f)
			n := a + 2
			var fold, found int64 = 0, f
			for k := n; k > 0; k-- { // list is (s+n), (s+n-1), ..., (s+1)
				fold += (s + k) * e
			}
			for k := n; k > 0; k-- {
				if s+k < s+d {
					found = s + k
					break
				}
			}
			checks[g] = fold + found
		}
	}
	var want int64
	var terms []string
	for _, g := range r.Perm(groups)[:min(compileChecks, groups)] {
		terms = append(terms, fmt.Sprintf("check%d ()", g))
		want += checks[g]
	}
	// (x mod p + p) mod p: template 1 can go negative.
	fmt.Fprintf(&b, "let main () = ((%s) mod %d + %d) mod %d\n", strings.Join(terms, " + "), modP, modP, modP)
	return program{source: b.String(), entries: []string{"main"}, expect: []int64{(want%modP + modP) % modP}}
}

(* expect: 1200
   heap: 256

   A closure-called frame whose type argument is no word of its closure
   but derives from the call site's arrow type (Figure 4): mk's let-bound
   g is polymorphic in y, so g's closure stores x's type and not y's, and a
   collection inside g — allocating [y; y] with y a fresh list — finds the
   type of y by following the path from the arrow type of the call,
   (mk [n]) [n; n], to its domain. Two nested loops of twenty keep the
   stack shallow. *)
let mk x = let g = fun y -> (x, [y; y]) in g
let rec len xs = match xs with | [] -> 0 | _ :: r -> len r + 1
let step n = match (mk [n]) [n; n] with | (a, b) -> len a + len b
let rec inner n acc = if n = 0 then acc else inner (n - 1) (acc + step n)
let rec outer k acc = if k = 0 then acc else outer (k - 1) (inner 20 acc)
let main () = outer 20 0

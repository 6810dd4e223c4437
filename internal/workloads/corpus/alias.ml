(* expect: 12600
   heap: 2048

   A polymorphic top-level alias of map, and an alias of the alias, each
   called at its own types: a direct call through an alias instantiates
   the ultimate callee, map, at a composition of the two instantiations,
   so the frames of map that a collection stops in are typed through it. *)
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let lift = map
let lift2 = lift
let round n =
  let pairs = lift (fun x -> (x, [x; x])) (upto n) in
  let firsts = lift2 (fun p -> match p with (a, l) -> a + sum l) pairs in
  sum firsts
let rec loop k acc = if k = 0 then acc else loop (k - 1) (acc + round 20)
let main () = loop 20 0

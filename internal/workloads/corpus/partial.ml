(* expect: 57
   heap: 2048

   Closure-heavy: partial application, composition, closures in lists. *)
let add a b = a + b
let compose f g = fun x -> f (g x)
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec pipe fs x = match fs with | [] -> x | f :: r -> pipe r (f x)

let main () =
  let inc = add 1 in
  let twice = compose inc inc in
  let steps = map add (upto 10) in
  pipe steps (twice 0)

(* expect: 17400
   heap: 1024
   alloc-heavy: true

   closure-heavy: build and apply chains of partial applications *)
let add a b = a + b
let compose f g = fun x -> f (g x)
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec apply_all fs x = match fs with | [] -> x | f :: r -> apply_all r (f x)
let round () =
  let adders = map add (upto 20) in
  let doubled = compose (fun x -> x * 2) (fun x -> x + 1) in
  apply_all adders (doubled 10)
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 75 0

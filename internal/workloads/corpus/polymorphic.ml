(* expect: 902
   heap: 2048

   The paper's §3 scenario: one polymorphic definition, many instantiations,
   collected tag-free through type_gc_routine passing. *)
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec foldl f acc xs = match xs with | [] -> acc | x :: r -> foldl f (f acc x) r
let rec upto n = if n = 0 then [] else n :: upto (n - 1)

let main () =
  let squares = map (fun x -> x * x) (upto 12) in
  let pairs = map (fun x -> (x, x + 1)) (upto 8) in
  let tagged = map (fun x -> (x mod 2 = 0, x)) (upto 6) in
  foldl (fun a b -> a + b) 0 squares
    + foldl (fun a p -> match p with (x, y) -> a + x * y) 0 pairs
    + foldl (fun a p -> match p with (even, v) -> if even then a + v else a) 0 tagged

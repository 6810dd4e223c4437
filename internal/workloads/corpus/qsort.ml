(* expect: 126358
   heap: 1024
   alloc-heavy: true

   quicksort over a pseudo-random list; position-weighted checksum *)
let rec append xs ys = match xs with | [] -> ys | x :: r -> x :: append r ys
let rec filter p xs =
  match xs with
  | [] -> []
  | x :: r -> if p x then x :: filter p r else filter p r
let rec qsort xs =
  match xs with
  | [] -> []
  | p :: r ->
    append (qsort (filter (fun x -> x < p) r)) (p :: qsort (filter (fun x -> x >= p) r))
let rec lcg n seed =
  if n = 0 then [] else (seed mod 100) :: lcg (n - 1) ((seed * 75 + 74) mod 65537)
let rec wsum xs i = match xs with | [] -> 0 | x :: r -> i * x + wsum r (i + 1)
let main () = wsum (qsort (lcg 60 12345)) 1

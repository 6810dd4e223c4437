(* expect: 4
   heap: 1024
   alloc-heavy: true

   6-queens via list-of-placements search — lists plus backtracking *)
let abs x = if x < 0 then 0 - x else x
let rec safe q qs d =
  match qs with
  | [] -> true
  | x :: r -> if x = q then false else if abs (x - q) = d then false else safe q r (d + 1)
let rec range a b = if a > b then [] else a :: range (a + 1) b
let rec length xs = match xs with | [] -> 0 | _ :: r -> 1 + length r
let rec try_cols cols qs n =
  match cols with
  | [] -> 0
  | c :: rest ->
    (if safe c qs 1 then solve (c :: qs) n else 0) + try_cols rest qs n
and solve qs n =
  if length qs = n then 1
  else try_cols (range 1 n) qs n
let main () = solve [] 6

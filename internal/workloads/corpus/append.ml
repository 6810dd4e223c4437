(* expect: 6325
   heap: 2048

   The paper's running example (§2.4): append over integer lists.
   Liveness makes every frame map of append empty — the no_trace routine. *)
let rec append xs ys =
  match xs with
  | [] -> ys
  | x :: rest -> x :: append rest ys

let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r

let main () =
  let zs = append (upto 100) (upto 50) in
  print_string "sum = ";
  print_int (sum zs);
  print_newline ();
  sum zs

(* expect: 27900
   heap: 2048

   Builtins passed as values: print_int, handed down the loop as its output
   sink, and print_string, handed to a polymorphic iterator, each become a
   closure over a wrapper function. The sink is live in every round's frame
   across upto's allocations, so collections trace it. *)
let rec each f xs = match xs with | [] -> () | x :: r -> (let _ = f x in each f r)
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let quiet n = ()
let round out k =
  let xs = upto 30 in
  each (if k = 1 then out else quiet) [sum xs];
  sum xs
let rec loop out k acc = if k = 0 then acc else loop out (k - 1) (acc + round out k)
let main () =
  let total = loop print_int 60 0 in
  print_newline ();
  each print_string ["total "; "= "];
  print_int total;
  print_newline ();
  total

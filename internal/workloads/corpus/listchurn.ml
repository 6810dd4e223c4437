(* expect: 62850
   heap: 1024
   alloc-heavy: true

   append/reverse churn over integer lists (the paper's §2.4 example) *)
let rec append xs ys = match xs with | [] -> ys | x :: r -> x :: append r ys
let rec rev xs = match xs with | [] -> [] | x :: r -> append (rev r) [x]
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let round () = sum (rev (append (upto 40) (upto 50)))
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 30 0

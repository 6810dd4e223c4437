(* expect: 31850
   heap: 4096

   reference-cell mutation: counters and accumulators in the heap *)
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec each f xs = match xs with | [] -> () | x :: r -> (let _ = f x in each f r)
let round () =
  let acc = ref 0 in
  let bump x = acc := !acc + x in
  each bump (upto 25);
  !acc
let rec loop n t = if n = 0 then t else loop (n - 1) (t + round ())
let main () = loop 98 0

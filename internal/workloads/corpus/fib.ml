(* expect: 17711
   heap: 4096

   recursive Fibonacci — pure arithmetic, allocates nothing *)
let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
let main () = fib 22

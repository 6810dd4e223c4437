(* expect: 18600
   heap: 1024
   alloc-heavy: true

   continuation-passing sums — chains of heap closures traced via Figure-4
   arrow routines *)
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sumk xs k =
  match xs with
  | [] -> k 0
  | x :: r -> sumk r (fun s -> k (x + s))
let round () = sumk (upto 30) (fun s -> s)
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 40 0

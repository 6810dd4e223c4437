(* expect: 9855
   heap: 1024
   alloc-heavy: true

   polymorphic map/fold pipelines instantiated at several types (§3) *)
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec foldl f acc xs = match xs with | [] -> acc | x :: r -> foldl f (f acc x) r
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec zipsum ps = match ps with | [] -> 0 | (a, b) :: r -> a + b + zipsum r
let round () =
  let ints = map (fun x -> x * 3) (upto 20) in
  let pairs = map (fun x -> (x, x * x)) (upto 10) in
  let flags = map (fun x -> x mod 2 = 0) (upto 8) in
  let nested = map (fun x -> [x; x]) (upto 6) in
  foldl (fun a b -> a + b) 0 ints
    + zipsum pairs
    + foldl (fun a b -> if b then a + 1 else a) 0 flags
    + foldl (fun a l -> a + (match l with | x :: _ -> x | [] -> 0)) 0 nested
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 9 0

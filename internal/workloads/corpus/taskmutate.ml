(* entries: mut_a mut_b mut_c
   expect: 23400 28400 32400
   heap: 4096

   long-lived ref cells repeatedly repointed at fresh lists — the
   generational antagonist: every refresh is an old→young store through the
   write barrier *)
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec mkcells n = if n = 0 then [] else ref [n] :: mkcells (n - 1)
let rec refresh cells k =
  match cells with
  | [] -> 0
  | c :: r -> (let _ = (c := upto k) in 1 + refresh r k)
let rec harvest cells = match cells with | [] -> 0 | c :: r -> sum (!c) + harvest r
let rec cycle cells n acc =
  if n = 0 then acc
  else (let _ = refresh cells 12 in cycle cells (n - 1) (acc + harvest cells))
let work seed = (let cells = mkcells 10 in cycle cells 30 seed)
let mut_a () = work 0
let mut_b () = work 5000
let mut_c () = work 9000

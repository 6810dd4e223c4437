(* entries: req_tiny req_small req_medium req_heavy
   expect: 650 2600 7800 31200
   heap: 2048

   request-sized list churn in four service classes
   (tiny/small/medium/heavy) — the serve harness samples these as its
   heavy-tail service mix *)
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let round () = sum (upto 25)
let rec work rounds acc =
  if rounds = 0 then acc
  else work (rounds - 1) (acc + round ())
let req_tiny () = work 2 0
let req_small () = work 8 0
let req_medium () = work 24 0
let req_heavy () = work 96 0

(* entries: spine_a spine_b spine_c
   expect: 27940 28940 29940
   heap: 2048

   long-lived lists of boxed pairs consumed only by length — element fields
   never read again stay live through every collection *)
let rec len xs = match xs with | [] -> 0 | _ :: r -> 1 + len r
let rec mkpairs n = if n = 0 then [] else (n, n * 2) :: mkpairs (n - 1)
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let churn () = sum (upto 30)
let rec drive spine n acc =
  if n = 0 then acc + len spine
  else drive spine (n - 1) (acc + churn ())
let spine_a () = (let s = mkpairs 40 in drive s 60 0)
let spine_b () = (let s = mkpairs 40 in drive s 60 1000)
let spine_c () = (let s = mkpairs 40 in drive s 60 2000)

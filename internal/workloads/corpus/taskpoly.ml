(* entries: deep_a deep_b
   expect: 5050 6050
   heap: 512

   chains of polymorphic frames per task — type-arg resolution dominates
   the scan *)
let rec len xs = match xs with | [] -> 0 | _ :: r -> len r + 1
let deep3 p = (let l = [p; p; p] in len l - 3)
let deep2 p = deep3 (p, p)
let deep1 p = deep2 (p, p)
let probe x = deep1 (x, x)
let rec drive n acc =
  if n = 0 then acc
  else drive (n - 1) (acc + n + probe n)
let deep_a () = drive 100 0
let deep_b () = drive 100 1000

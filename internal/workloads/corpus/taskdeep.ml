(* entries: tower_a tower_b
   expect: 1500 1500
   heap: 1024

   deep towers of one polymorphic frame — the collection fast path's
   motivating shape: every frame resolves the same (site, instantiation)
   plan *)
let probe x = (let _ = [x; x] in 1)
let rec pdepth x acc n =
  if n = 0 then acc
  else probe x + pdepth x acc (n - 1)
let rec towers x n acc = if n = 0 then acc else towers x (n - 1) (acc + pdepth x 0 150)
let tower_a () = towers (1, true) 10 0
let tower_b () = towers [1] 10 0

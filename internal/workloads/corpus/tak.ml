(* expect: 7
   heap: 4096

   Takeuchi function — call-heavy arithmetic, allocates nothing *)
let rec tak x y z =
  if y >= x then z
  else tak (tak (x - 1) y z) (tak (y - 1) z x) (tak (z - 1) x y)
let main () = tak 18 12 6

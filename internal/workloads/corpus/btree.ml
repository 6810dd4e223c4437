(* expect: 12350
   heap: 1024
   alloc-heavy: true

   build and sum binary trees repeatedly (GCBench-style) *)
type tree = Leaf | Node of tree * int * tree
let rec build d = if d = 0 then Leaf else Node (build (d - 1), d, build (d - 1))
let rec tsum t = match t with | Leaf -> 0 | Node (l, v, r) -> tsum l + v + tsum r
let round () = tsum (build 7)
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 50 0

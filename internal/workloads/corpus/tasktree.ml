(* entries: grow_a grow_b grow_c
   expect: 7410 7410 7410
   heap: 4096

   tree building per task — deep structures reachable from suspended frames *)
type tree = Leaf | Node of tree * int * tree
let rec build n = if n = 0 then Leaf else Node (build (n - 1), n, build (n - 1))
let rec tsum t = match t with | Leaf -> 0 | Node (l, v, r) -> tsum l + v + tsum r
let round () = tsum (build 7)
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let grow_a () = loop 30 0
let grow_b () = loop 30 0
let grow_c () = loop 30 0

(* expect: 2029
   heap: 2048

   Binary search tree: insert, member, in-order fold. Exercises the §2.3
   variant-record treatment (Node has three fields, Leaf is unboxed). *)
type tree = Leaf | Node of tree * int * tree

let rec insert t v =
  match t with
  | Leaf -> Node (Leaf, v, Leaf)
  | Node (l, x, r) ->
    if v < x then Node (insert l v, x, r)
    else if v > x then Node (l, x, insert r v)
    else t

let rec fold f acc t =
  match t with
  | Leaf -> acc
  | Node (l, v, r) -> fold f (f (fold f acc l) v) r

let rec build t n seed =
  if n = 0 then t
  else build (insert t (seed mod 97)) (n - 1) ((seed * 75 + 74) mod 65537)

let main () =
  let t = build Leaf 60 4242 in
  fold (fun a v -> a + v) 0 t

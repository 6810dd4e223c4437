(* expect: 1005000
   heap: 2048

   A closure-called polymorphic frame whose instantiation is its closure's
   rep word, called from one site under one caller plan: mk's local f
   captures x but its own type, int -> int, does not name x's, so its
   closures at (int * bool) and int list store it. Their frames stop at the
   same site of f under run's one plan, and a plan edge cached for one
   would type the other's x wrong (the collector never edge-caches a frame
   that reads its instantiation from its closure). A thousand rounds make
   the corpus's 2048-word heap collect three times inside f, under both
   closures, so even a plain run's verifier sees such an edge mistype x. *)
let mk x = (let f n = (let l = [x; x] in match l with | [] -> n | _ :: r -> n + 1) in f)
let run f n = f n + 1
let rec loop f g k acc = if k = 0 then acc else loop f g (k - 1) (acc + run f k + run g k)
let main () = loop (mk (5, true)) (mk [6]) 1000 0

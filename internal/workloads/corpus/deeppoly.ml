(* expect: 350
   heap: 1024
   alloc-heavy: true

   deep recursion of a polymorphic function holding a live 'a value per
   frame (E6 stress) *)
let probe x = (let _ = [x; x] in 1)
let rec pdepth x acc n =
  if n = 0 then acc
  else probe x + pdepth x acc (n - 1)
let main () = pdepth (1, true) 0 175 + pdepth [1] 0 175

(* expect: 12600
   heap: 1024
   alloc-heavy: true

   phantom-typed closures requiring runtime type reps (the E8 extension) *)
let make_thunk x =
  let th = fun () -> (let _ = [x; x] in 42) in
  th
let rec apply_thunks ts = match ts with | [] -> 0 | t :: r -> t () + apply_thunks r
let rec mk n = if n = 0 then [] else make_thunk (n, n) :: mk (n - 1)
let round () = apply_thunks (mk 10)
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 30 0

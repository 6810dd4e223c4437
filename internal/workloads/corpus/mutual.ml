(* expect: 1129
   heap: 2048

   Mutual recursion at top level and locally, with ref-cell state. *)
let counter = ref 0
let tick () = counter := !counter + 1

let rec even n = (let _ = tick () in if n = 0 then true else odd (n - 1))
and odd n = if n = 0 then false else even (n - 1)

let main () =
  let e = if even 40 then 1000 else 0 in
  let o = if odd 15 then 100 else 0 in
  e + o + !counter

(* expect: 750
   heap: 2048
   alloc-heavy: true

   sieve of Eratosthenes over lists with filter closures, repeated *)
let rec range a b = if a > b then [] else a :: range (a + 1) b
let rec filter p xs =
  match xs with
  | [] -> []
  | x :: r -> if p x then x :: filter p r else filter p r
let rec sieve xs =
  match xs with
  | [] -> []
  | p :: r -> p :: sieve (filter (fun x -> x mod p <> 0) r)
let rec length xs = match xs with | [] -> 0 | _ :: r -> 1 + length r
let round () = length (sieve (range 2 100))
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 30 0

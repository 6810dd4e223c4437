(* expect: 72900
   heap: 2048
   alloc-heavy: true

   expression-tree interpreter — variant records (§2.3) *)
type expr =
  | Num of int
  | Add of expr * expr
  | Mul of expr * expr
  | Neg of expr
  | IfPos of expr * expr * expr
let rec eval e =
  match e with
  | Num n -> n
  | Add (a, b) -> eval a + eval b
  | Mul (a, b) -> eval a * eval b
  | Neg a -> 0 - eval a
  | IfPos (c, t, f) -> if eval c > 0 then eval t else eval f
let rec grow d =
  if d = 0 then Num 1
  else Add (Mul (Num 2, grow (d - 1)), IfPos (Num 1, grow (d - 1), Neg (Num 5)))
let round () = eval (grow 6)
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 100 0

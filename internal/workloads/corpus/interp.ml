(* expect: 42
   heap: 2048

   A tiny expression interpreter interpreting itself-ish structures:
   variants with differing arities, nested matches. *)
type expr =
  | Num of int
  | Add of expr * expr
  | Mul of expr * expr
  | Let of int * expr * expr
  | Var of int

type env = Nil | Bind of int * int * env

let rec lookup e k =
  match e with
  | Nil -> 0
  | Bind (k2, v, rest) -> if k = k2 then v else lookup rest k

let rec eval env e =
  match e with
  | Num n -> n
  | Add (a, b) -> eval env a + eval env b
  | Mul (a, b) -> eval env a * eval env b
  | Var k -> lookup env k
  | Let (k, v, body) -> eval (Bind (k, eval env v, env)) body

let main () =
  eval Nil (Let (1, Num 6, Mul (Var 1, Add (Var 1, Num 1))))

(* expect: 70300
   heap: 2048

   A call-by-value interpreter for the untyped lambda calculus with de
   Bruijn indices — a compiler-shaped workload: environments are linked
   heap structures, object-language closures are data, and beta-reduction
   churns the heap. *)
type term =
  | TVar of int
  | TLam of term
  | TApp of term * term

(* value and env are mutually recursive; the checker declares all type
   heads before filling constructors, so forward references work. *)
type value = Clo of term * env
type env = Empty | Ext of value * env

let rec lookup e n =
  match e with
  | Empty -> Clo (TVar 0, Empty)  (* unbound: inert dummy *)
  | Ext (v, rest) -> if n = 0 then v else lookup rest (n - 1)

let rec eval t e =
  match t with
  | TVar n -> lookup e n
  | TLam b -> Clo (b, e)
  | TApp (f, a) ->
    (match eval f e with
     | Clo (body, fenv) -> eval body (Ext (eval a e, fenv)))

(* Church numerals: n = \f.\x. f^n x. *)
let church_zero = TLam (TLam (TVar 0))
let church_succ =
  TLam (TLam (TLam (TApp (TVar 1, TApp (TApp (TVar 2, TVar 1), TVar 0)))))
let church_add =
  TLam (TLam (TLam (TLam (TApp (TApp (TVar 3, TVar 1),
                                TApp (TApp (TVar 2, TVar 1), TVar 0))))))
let church_mul = TLam (TLam (TLam (TApp (TVar 2, TApp (TVar 1, TVar 0)))))

let rec church n = if n = 0 then church_zero else TApp (church_succ, church (n - 1))

(* Decode a numeral by applying it to inc = \a.\d. a and nil = \x. x:
   each application of inc yields Clo (TVar 1, Ext (previous, _)), nesting
   the previous value one level deeper; count unwinds the nesting. *)
let inc = TLam (TLam (TVar 1))
let nil = TLam (TVar 0)

let rec count v =
  match v with
  | Clo (TVar 1, Ext (u, _)) -> 1 + count u
  | _ -> 0

let to_int t = count (eval (TApp (TApp (t, inc), nil)) Empty)

let main () =
  let twelve = TApp (TApp (church_mul, church 3),
                     TApp (TApp (church_add, church 2), church 2)) in
  let seven = TApp (TApp (church_add, church 3), church 4) in
  let rec rounds n acc = if n = 0 then acc else rounds (n - 1) (acc + to_int twelve) in
  to_int seven * 10000 + rounds 25 0

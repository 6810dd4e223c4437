(* entries: task_a task_b task_c task_d
   expect: 13000 14000 15000 16000
   heap: 2048

   list churn on every task stack — collections see several live stacks *)
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let round () = sum (upto 25)
let rec work rounds acc =
  if rounds = 0 then acc
  else work (rounds - 1) (acc + round ())
let task_a () = work 40 0
let task_b () = work 40 1000
let task_c () = work 40 2000
let task_d () = work 40 3000

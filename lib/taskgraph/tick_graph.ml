module Rat = Rt_util.Rat

type t = {
  den : int;
  arrival : int array;
  deadline : int array;
  wcet : int array;
  succ_off : int array;
  succ : int array;
  n_preds : int array;
  topo : int array;
}

(* [a * b] for [b > 0], or Overflow *)
let mul a b =
  let p = a * b in
  if p / b <> a then raise Rat.Overflow else p

let add a b =
  let s = a + b in
  (* overflow iff the operands share a sign the sum does not *)
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then raise Rat.Overflow
  else s

let compile g =
  let jobs = Graph.jobs g in
  let n = Array.length jobs in
  let lcm acc r =
    let d = Rat.den r in
    if acc mod d = 0 then acc else mul (acc / Rat.gcd_int acc d) d
  in
  let den =
    Array.fold_left
      (fun acc j -> lcm (lcm (lcm acc j.Job.arrival) j.Job.deadline) j.Job.wcet)
      1 jobs
  in
  let ticks r = mul (Rat.num r) (den / Rat.den r) in
  let arrival = Array.map (fun j -> ticks j.Job.arrival) jobs in
  let deadline = Array.map (fun j -> ticks j.Job.deadline) jobs in
  let wcet = Array.map (fun j -> ticks j.Job.wcet) jobs in
  (* the horizon bounds every start and finish of a list schedule, and
     the lowest ALAP bound every ALAP key: all later sums stay inside *)
  let total = Array.fold_left add 0 wcet in
  ignore (add (Array.fold_left max 0 arrival) total);
  ignore (add (Array.fold_left min 0 deadline) (-total));
  let succ_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    succ_off.(i + 1) <- succ_off.(i) + List.length (Graph.succs g i)
  done;
  let succ = Array.make succ_off.(n) 0 in
  for i = 0 to n - 1 do
    List.iteri (fun k s -> succ.(succ_off.(i) + k) <- s) (Graph.succs g i)
  done;
  {
    den;
    arrival;
    deadline;
    wcet;
    succ_off;
    succ;
    n_preds = Array.init n (fun i -> List.length (Graph.preds g i));
    topo = Array.of_list (Graph.topo_order g);
  }

let n_jobs t = Array.length t.arrival
let to_rat t ticks = if t.den = 1 then Rat.of_int ticks else Rat.make ticks t.den

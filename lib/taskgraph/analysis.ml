module Rat = Rt_util.Rat

(* D'_i = min(D_i, min_{s ∈ Succ(i)} D'_s − C_s), sinks first.  Every
   value stays above compile's lowest ALAP bound min(0, min D_i) − Σ C. *)
let alap (v : Tick_graph.t) =
  let alap = Array.copy v.deadline in
  for k = Array.length v.topo - 1 downto 0 do
    let i = v.topo.(k) in
    for e = v.succ_off.(i) to v.succ_off.(i + 1) - 1 do
      let s = v.succ.(e) in
      alap.(i) <- min alap.(i) (alap.(s) - v.wcet.(s))
    done
  done;
  alap

let b_level (v : Tick_graph.t) =
  let bl = Array.make (Tick_graph.n_jobs v) 0 in
  for k = Array.length v.topo - 1 downto 0 do
    let i = v.topo.(k) in
    let best = ref 0 in
    for e = v.succ_off.(i) to v.succ_off.(i + 1) - 1 do
      best := max !best bl.(v.succ.(e))
    done;
    bl.(i) <- v.wcet.(i) + !best
  done;
  bl

(* A'_i = max(A_i, max_{p ∈ Pred(i)} A'_p + C_p), pushed along the
   topological order; below compile's horizon max(0, max A_i) + Σ C. *)
let asap (v : Tick_graph.t) =
  let asap = Array.copy v.arrival in
  Array.iter
    (fun i ->
      let f = asap.(i) + v.wcet.(i) in
      for e = v.succ_off.(i) to v.succ_off.(i + 1) - 1 do
        let s = v.succ.(e) in
        if f > asap.(s) then asap.(s) <- f
      done)
    v.topo;
  asap

(* Euclid's steps on both fractions: equal integer parts leave the
   remainders' fractions, compared through their reciprocals *)
let rec compare_fractions a b c d =
  let q1 = a / b and q2 = c / d in
  if q1 <> q2 then Int.compare q1 q2
  else
    let r1 = a - (q1 * b) and r2 = c - (q2 * d) in
    if r1 = 0 || r2 = 0 then Int.compare r1 r2
    else compare_fractions d r2 b r1

let compare_ratios a b c d =
  if a lor b lor c lor d < 0x4000_0000 then Int.compare (a * d) (c * b)
  else if (a = 0 || d <= max_int / a) && (c = 0 || b <= max_int / c) then
    Int.compare (a * d) (c * b)
  else compare_fractions a b c d

type load_result = { value : Rat.t; window : Rat.t * Rat.t }

type t = {
  ticks : Tick_graph.t;
  asap : int array;
  alap : int array;
  infeasible : int list;
  load : load_result;
}

let sorted_by key =
  let ids = Array.init (Array.length key) Fun.id in
  Array.stable_sort (fun a b -> Int.compare key.(a) key.(b)) ids;
  ids

let load (v : Tick_graph.t) ~asap ~alap =
  let n = Tick_graph.n_jobs v in
  (* t1 among ASAP starts, t2 among ALAP completions: shrinking a window
     to these values never decreases the ratio *)
  let by_asap = sorted_by asap in
  (* the distinct ALAP values ascending, and each job's index there *)
  let t2s = Array.make n 0 and d_of = Array.make n 0 in
  let q = ref 0 in
  Array.iteri
    (fun k i ->
      if k = 0 || t2s.(!q - 1) <> alap.(i) then begin
        t2s.(!q) <- alap.(i);
        incr q
      end;
      d_of.(i) <- !q - 1)
    (sorted_by alap);
  let q = !q in
  (* WCET of the jobs with A'_i >= t1, per ALAP value *)
  let acc = Array.make q 0 in
  let best_work = ref 0 and best_len = ref 1 in
  let best_t1 = ref 0 and best_t2 = ref 0 in
  let k = ref (n - 1) in
  while !k >= 0 do
    let t1 = asap.(by_asap.(!k)) in
    while !k >= 0 && asap.(by_asap.(!k)) = t1 do
      let i = by_asap.(!k) in
      acc.(d_of.(i)) <- acc.(d_of.(i)) + v.wcet.(i);
      decr k
    done;
    (* prefix sums over t2 ascending *)
    let running = ref 0 in
    for d = 0 to q - 1 do
      running := !running + acc.(d);
      let t2 = t2s.(d) in
      if t2 > t1 && !running > 0 then begin
        let len = t2 - t1 in
        if len < 0 then raise Rat.Overflow;
        if compare_ratios !running len !best_work !best_len > 0 then begin
          best_work := !running;
          best_len := len;
          best_t1 := t1;
          best_t2 := t2
        end
      end
    done
  done;
  if !best_work = 0 then { value = Rat.zero; window = (Rat.zero, Rat.one) }
  else
    {
      value = Rat.make !best_work !best_len;
      window = (Tick_graph.to_rat v !best_t1, Tick_graph.to_rat v !best_t2);
    }

let of_ticks (v : Tick_graph.t) =
  let asap = asap v and alap = alap v in
  let infeasible = ref [] in
  for i = Tick_graph.n_jobs v - 1 downto 0 do
    if asap.(i) + v.wcet.(i) > alap.(i) then infeasible := i :: !infeasible
  done;
  { ticks = v; asap; alap; infeasible = !infeasible; load = load v ~asap ~alap }

let analyse g = of_ticks (Tick_graph.compile g)

let lower_bound a =
  if a.infeasible <> [] then max_int else max 1 (Rat.ceil a.load.value)

type violation =
  | Job_infeasible of int
  | Load_exceeds of { load : Rat.t; processors : int }

let pp_violation g ppf = function
  | Job_infeasible i ->
    Format.fprintf ppf "job %s cannot fit its ASAP/ALAP window"
      (Job.label (Graph.job g i))
  | Load_exceeds { load; processors } ->
    Format.fprintf ppf "ceil(load %a) exceeds %d processor(s)" Rat.pp load
      processors

let necessary_condition a ~processors =
  let jobs = List.map (fun i -> Job_infeasible i) a.infeasible in
  let violations =
    if Rat.ceil a.load.value > processors then
      jobs @ [ Load_exceeds { load = a.load.value; processors } ]
    else jobs
  in
  match violations with [] -> Ok () | vs -> Error vs

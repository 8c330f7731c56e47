module Rat = Rt_util.Rat
module Json = Rt_util.Json
module Network = Fppn.Network
module Process = Fppn.Process
module Derive = Taskgraph.Derive

type task = {
  t_name : string;
  wcet : Rat.t;
  period : Rat.t;
  deadline : Rat.t;
}

let taskset_of_network ~wcet net (d : Derive.t) =
  List.init (Network.n_processes net) (fun i ->
      let proc = Network.process net i in
      let name = Process.name proc in
      let c = wcet name in
      let burst = Rat.of_int (Process.burst proc) in
      match Derive.server_of d i with
      | Some s ->
        (* sporadic folded to its m-periodic server, exactly as the
           derivation does: period T' = T_u(p) (or footnote 3's
           fraction), deadline d - T', burst jobs per server period *)
        {
          t_name = name;
          wcet = Rat.mul burst c;
          period = s.Derive.server_period;
          deadline = s.Derive.server_relative_deadline;
        }
      | None ->
        let t = Process.period proc in
        {
          t_name = name;
          wcet = Rat.mul burst c;
          period = t;
          deadline = Rat.min (Process.deadline proc) t;
        })

let utilization ts =
  List.fold_left (fun acc t -> Rat.add acc (Rat.div t.wcet t.period)) Rat.zero ts

let dbf t len =
  if Rat.( < ) len t.deadline then Rat.zero
  else
    let k = Rat.fdiv (Rat.sub len t.deadline) t.period + 1 in
    if k <= 0 then Rat.zero else Rat.mul (Rat.of_int k) t.wcet

type t = { period : Rat.t; budget : Rat.t; concurrency : int }

let bandwidth m = Rat.div m.budget m.period

(* The linear supply bound of [m], its slope and blackout computed once *)
let supply m =
  let open Rat in
  let blackout =
    of_int 2 * (m.period - (m.budget / of_int m.concurrency))
  in
  let bw = bandwidth m in
  fun len ->
    let supplied = bw * (len - blackout) in
    if Stdlib.( < ) (sign supplied) 0 then zero else supplied

let sbf = supply

(* Absolute-deadline checkpoints in (0, hyperperiod]: the points where
   total EDF demand steps.  Demand and (linear) supply are both
   right-continuous piecewise-linear with demand flat between
   checkpoints, so checking at the steps plus the horizon is exact for
   the horizon, and the slope condition extends the verdict beyond. *)
let checkpoints ts =
  let hp = Rat.lcm_list (List.map (fun (t : task) -> t.period) ts) in
  let pts =
    List.concat_map
      (fun (t : task) ->
        let rec go k acc =
          let p = Rat.add t.deadline (Rat.mul (Rat.of_int k) t.period) in
          if Rat.( > ) p hp then acc else go (k + 1) (p :: acc)
        in
        go 0 [])
      ts
  in
  List.sort_uniq Rat.compare (hp :: pts)

(* Everything the demand test reads of a non-empty task set, none of
   which depends on the interface: the utilization, [C_max], and the
   total demand [Σ_i dbf_i(t)] at each checkpoint [t]. *)
type demand = {
  u : Rat.t;
  cmax : Rat.t;
  points : Rat.t array;
  at : Rat.t array;
}

let demand ts =
  let points = Array.of_list (checkpoints ts) in
  {
    u = utilization ts;
    cmax = List.fold_left (fun acc t -> Rat.max acc t.wcet) Rat.zero ts;
    points;
    at =
      Array.map
        (fun p -> List.fold_left (fun acc t -> Rat.add acc (dbf t p)) Rat.zero ts)
        points;
  }

(* [u <= Θ/Π], then [Σ dbf(t) + carry <= sbf(t)] at every checkpoint,
   [carry] being the interface's [m'·C_max] *)
let fits dem ~carry m =
  Rat.( <= ) dem.u (bandwidth m)
  &&
  let sbf = supply m in
  let rec from i =
    i = Array.length dem.points
    || Rat.( <= ) (Rat.add dem.at.(i) carry) (sbf dem.points.(i))
       && from (i + 1)
  in
  from 0

let is_schedulable_edf ts m =
  match ts with
  | [] -> true
  | _ ->
    let dem = demand ts in
    fits dem ~carry:(Rat.mul (Rat.of_int m.concurrency) dem.cmax) m

let default_period ts =
  let tmin =
    List.fold_left
      (fun acc (t : task) -> Rat.min acc (Rat.min t.period t.deadline))
      (List.hd ts : task).period ts
  in
  let p = Rat.div tmin (Rat.of_int 10) in
  if Rat.sign p > 0 then p else Rat.one

let generate_interface ?period ?(step = 64) ?max_concurrency ts =
  match ts with
  | [] -> Some { period = Rat.one; budget = Rat.zero; concurrency = 1 }
  | _ ->
    if step <= 0 then invalid_arg "Mpr.generate_interface: step <= 0";
    let pi = match period with Some p -> p | None -> default_period ts in
    if Rat.sign pi <= 0 then
      invalid_arg "Mpr.generate_interface: period <= 0";
    let dem = demand ts in
    let lo_m = max 1 (Rat.ceil dem.u) in
    let hi_m =
      match max_concurrency with
      | Some m -> max lo_m m
      | None -> max lo_m (List.length ts)
    in
    let budget_of k = Rat.div (Rat.mul (Rat.of_int k) pi) (Rat.of_int step) in
    let rec try_m m' =
      if m' > hi_m then None
      else begin
        (* sbf is monotone in the budget, so binary search the grid
           Θ = k·Π/step for the smallest schedulable k; only the
           supply depends on k *)
        let carry = Rat.mul (Rat.of_int m') dem.cmax in
        let ok k =
          fits dem ~carry { period = pi; budget = budget_of k; concurrency = m' }
        in
        let hi = m' * step in
        if not (ok hi) then try_m (m' + 1)
        else begin
          let lo = ref 0 and hi = ref hi in
          while !hi - !lo > 1 do
            let mid = (!lo + !hi) / 2 in
            if ok mid then hi := mid else lo := mid
          done;
          let k = if ok !lo then !lo else !hi in
          Some { period = pi; budget = budget_of k; concurrency = m' }
        end
      end
    in
    try_m lo_m

type overflow =
  | Utilization of { total : Rat.t; procs : int }
  | Concurrency of { required : int; procs : int }

let compose_totals ~total ~required ~procs =
  if procs <= 0 then invalid_arg "Mpr.compose: procs <= 0";
  if required > procs then Error (Concurrency { required; procs })
  else if Rat.( > ) total (Rat.of_int procs) then
    Error (Utilization { total; procs })
  else Ok ()

let compose interfaces ~procs =
  let total =
    List.fold_left (fun acc m -> Rat.add acc (bandwidth m)) Rat.zero interfaces
  in
  let required =
    List.fold_left (fun acc m -> max acc m.concurrency) 0 interfaces
  in
  compose_totals ~total ~required ~procs

let to_json m =
  Json.Obj
    [
      ("period", Json.Str (Rat.to_string m.period));
      ("period_ms", Json.Float (Rat.to_float m.period));
      ("budget", Json.Str (Rat.to_string m.budget));
      ("budget_ms", Json.Float (Rat.to_float m.budget));
      ("concurrency", Json.Int m.concurrency);
      ("bandwidth", Json.Float (Rat.to_float (bandwidth m)));
    ]

let pp ppf m =
  Format.fprintf ppf "(Pi=%a, Theta=%a, m'=%d)" Rat.pp m.period Rat.pp m.budget
    m.concurrency

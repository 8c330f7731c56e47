(* MPR's EDF demand test and interface search as they ran before the
   demand was computed once per task set (Fppn_service.Mpr): each probe
   of the budget search rebuilt the hyperperiod, the checkpoints, the
   utilization, C_max and the demand at every checkpoint.  Kept verbatim
   as the differential oracle of the hoisted search. *)

module Rat = Rt_util.Rat
open Fppn_service.Mpr

let sbf m len =
  let open Rat in
  let blackout =
    of_int 2 * (m.period - (m.budget / of_int m.concurrency))
  in
  let supplied = bandwidth m * (len - blackout) in
  if Stdlib.( < ) (sign supplied) 0 then zero else supplied

(* Absolute-deadline checkpoints in (0, hyperperiod]: the points where
   total EDF demand steps.  Demand and (linear) supply are both
   right-continuous piecewise-linear with demand flat between
   checkpoints, so checking at the steps plus the horizon is exact for
   the horizon, and the slope condition extends the verdict beyond. *)
let checkpoints ts =
  match ts with
  | [] -> []
  | _ ->
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

let is_schedulable_edf ts m =
  match ts with
  | [] -> true
  | _ ->
    let cmax =
      List.fold_left (fun acc t -> Rat.max acc t.wcet) Rat.zero ts
    in
    let carry = Rat.mul (Rat.of_int m.concurrency) cmax in
    Rat.( <= ) (utilization ts) (bandwidth m)
    && List.for_all
         (fun p ->
           let demand =
             List.fold_left (fun acc t -> Rat.add acc (dbf t p)) carry ts
           in
           Rat.( <= ) demand (sbf m p))
         (checkpoints ts)

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
    let u = utilization ts in
    let lo_m = max 1 (Rat.ceil u) in
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
           Θ = k·Π/step for the smallest schedulable k *)
        let ok k = is_schedulable_edf ts { period = pi; budget = budget_of k; concurrency = m' } in
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

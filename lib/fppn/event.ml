module Rat = Rt_util.Rat
module Prng = Rt_util.Prng

type kind = Periodic | Sporadic

type t = { kind : kind; burst : int; period : Rat.t; deadline : Rat.t }

let validate ~burst ~period ~deadline =
  if burst < 1 then invalid_arg "Event: burst must be >= 1";
  if Rat.sign period <= 0 then invalid_arg "Event: period must be positive";
  if Rat.sign deadline <= 0 then invalid_arg "Event: deadline must be positive"

let periodic ?(burst = 1) ~period ~deadline () =
  validate ~burst ~period ~deadline;
  { kind = Periodic; burst; period; deadline }

let sporadic ?(burst = 1) ~min_period ~deadline () =
  validate ~burst ~period:min_period ~deadline;
  { kind = Sporadic; burst; period = min_period; deadline }

let is_sporadic t = t.kind = Sporadic

let pp ppf t =
  match t.kind with
  | Periodic ->
    if t.burst = 1 then Format.fprintf ppf "periodic %ams" Rat.pp t.period
    else Format.fprintf ppf "%d-periodic per %ams" t.burst Rat.pp t.period
  | Sporadic -> Format.fprintf ppf "sporadic %d per %ams" t.burst Rat.pp t.period

let periodic_invocations t ~horizon =
  if is_sporadic t then
    invalid_arg "Event.periodic_invocations: sporadic generator";
  let rec times time acc =
    if Rat.(time >= horizon) then List.rev acc
    else times (Rat.add time t.period) (time :: acc)
  in
  List.concat_map
    (fun time -> List.init t.burst (fun _ -> time))
    (times Rat.zero [])

let count_periodic_jobs t ~horizon =
  let periods = Rat.ceil (Rat.div horizon t.period) in
  t.burst * periods

let is_valid_sporadic_trace t stamps =
  let rec ascending = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> Rat.(a <= b) && ascending rest
  in
  let non_negative = List.for_all (fun s -> Rat.sign s >= 0) stamps in
  (* window check: for the i-th stamp s, the stamps in (s - T, s] must
     number at most m.  Checking windows anchored at each stamp is
     sufficient because a maximal violating window can always be slid
     right until its right edge hits a stamp.  On an ascending trace
     those stamps are a suffix of the first i + 1, so there are at most
     m of them iff the (i - m)-th stamp lies at or before s - T. *)
  let arr = Array.of_list stamps in
  let m = t.burst in
  let rec all_windows i =
    i >= Array.length arr
    || (Rat.( <= ) arr.(i - m) (Rat.sub arr.(i) t.period) && all_windows (i + 1))
  in
  ascending stamps && non_negative && all_windows m

let random_sporadic_trace t prng ~horizon ~density =
  if density < 0.0 || density > 1.0 then
    invalid_arg "Event.random_sporadic_trace: density must be in [0,1]";
  (* Draw candidate stamps on a 1 ms grid left to right; accept each
     candidate only if it keeps the window constraint.  The expected
     rate is density * (m/T). *)
  let horizon_ms = Rat.floor horizon in
  let period_f = Rat.to_float t.period in
  let p_event = density *. float_of_int t.burst /. period_f in
  let accepted = ref [] in
  let window_count stamp =
    let lo = Rat.sub stamp t.period in
    List.length (List.filter (fun s -> Rat.(s > lo)) !accepted)
  in
  for ms = 0 to horizon_ms - 1 do
    if Prng.float prng 1.0 < p_event then begin
      let stamp = Rat.of_int ms in
      if window_count stamp < t.burst then accepted := stamp :: !accepted
    end
  done;
  let stamps = List.rev !accepted in
  assert (is_valid_sporadic_trace t stamps);
  stamps

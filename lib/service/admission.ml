module Rat = Rt_util.Rat
module Json = Rt_util.Json
module Analysis = Taskgraph.Analysis

type candidate = {
  c_name : string;
  c_load : Rat.t;
  c_lower_bound : int;
  c_taskset : Mpr.task list;
}

let candidate ?analysis ~name ~wcet net (d : Taskgraph.Derive.t) =
  let a : Analysis.t =
    match analysis with
    | Some a -> a
    | None -> Analysis.analyse d.Taskgraph.Derive.graph
  in
  {
    c_name = name;
    c_load = a.load.value;
    c_lower_bound = Analysis.lower_bound a;
    c_taskset = Mpr.taskset_of_network ~wcet net d;
  }

type reason =
  | Duplicate_tenant of string
  | Underivable of string
  | Load_bound of { load : Rat.t; lower_bound : int; procs : int }
  | No_interface of { utilization : Rat.t }
  | Compose_utilization of { total : Rat.t; procs : int }
  | Compose_concurrency of { required : int; procs : int }
  | No_schedule of { procs : int }
  | Overflow of { step : string }

type decision = Accepted of Mpr.t | Rejected of reason

let decide_composed ~procs ~bandwidth ~concurrency c =
  if procs <= 0 then invalid_arg "Admission.decide: procs <= 0";
  if c.c_lower_bound > procs then
    Rejected (Load_bound { load = c.c_load; lower_bound = c.c_lower_bound; procs })
  else
    match Mpr.generate_interface c.c_taskset with
    | None ->
      Rejected (No_interface { utilization = Mpr.utilization c.c_taskset })
    | Some iface -> (
      match
        Mpr.compose_totals
          ~total:(Rat.add bandwidth (Mpr.bandwidth iface))
          ~required:(max concurrency iface.Mpr.concurrency)
          ~procs
      with
      | Ok () -> Accepted iface
      | Error (Mpr.Utilization { total; procs }) ->
        Rejected (Compose_utilization { total; procs })
      | Error (Mpr.Concurrency { required; procs }) ->
        Rejected (Compose_concurrency { required; procs }))

let decide ~procs ~resident c =
  decide_composed ~procs
    ~bandwidth:
      (List.fold_left (fun acc m -> Rat.add acc (Mpr.bandwidth m)) Rat.zero resident)
    ~concurrency:(List.fold_left (fun acc m -> max acc m.Mpr.concurrency) 0 resident)
    c

let reason_to_json = function
  | Duplicate_tenant name ->
    Json.Obj [ ("code", Json.Str "duplicate_tenant"); ("name", Json.Str name) ]
  | Underivable error ->
    Json.Obj [ ("code", Json.Str "underivable"); ("error", Json.Str error) ]
  | Load_bound { load; lower_bound; procs } ->
    Json.Obj
      [
        ("code", Json.Str "load_bound");
        ("load", Json.Float (Rat.to_float load));
        ("lower_bound", Json.Int lower_bound);
        ("procs", Json.Int procs);
      ]
  | No_interface { utilization } ->
    Json.Obj
      [
        ("code", Json.Str "no_interface");
        ("utilization", Json.Float (Rat.to_float utilization));
      ]
  | Compose_utilization { total; procs } ->
    Json.Obj
      [
        ("code", Json.Str "compose_utilization");
        ("total_bandwidth", Json.Float (Rat.to_float total));
        ("procs", Json.Int procs);
      ]
  | Compose_concurrency { required; procs } ->
    Json.Obj
      [
        ("code", Json.Str "compose_concurrency");
        ("required", Json.Int required);
        ("procs", Json.Int procs);
      ]
  | No_schedule { procs } ->
    Json.Obj [ ("code", Json.Str "no_schedule"); ("procs", Json.Int procs) ]
  | Overflow { step } ->
    Json.Obj [ ("code", Json.Str "overflow"); ("step", Json.Str step) ]

let decision_to_json = function
  | Accepted iface ->
    Json.Obj [ ("accepted", Json.Bool true); ("interface", Mpr.to_json iface) ]
  | Rejected r ->
    Json.Obj [ ("accepted", Json.Bool false); ("reason", reason_to_json r) ]

let pp_reason ppf = function
  | Duplicate_tenant name -> Format.fprintf ppf "duplicate tenant %s" name
  | Underivable error -> Format.fprintf ppf "no task graph: %s" error
  | Load_bound { load; lower_bound; procs } ->
    Format.fprintf ppf "Prop. 3.1 load bound: Load=%a, ceil=%d > M=%d" Rat.pp
      load lower_bound procs
  | No_interface { utilization } ->
    Format.fprintf ppf "no MPR interface covers the demand (U=%a)" Rat.pp
      utilization
  | Compose_utilization { total; procs } ->
    Format.fprintf ppf "interface composition overflows: sum Theta/Pi = %a > M=%d"
      Rat.pp total procs
  | Compose_concurrency { required; procs } ->
    Format.fprintf ppf "interface needs m'=%d > M=%d processors" required procs
  | No_schedule { procs } ->
    Format.fprintf ppf "no feasible static schedule up to M=%d" procs
  | Overflow { step } ->
    Format.fprintf ppf
      "the %s step overflows an int in exact arithmetic (no tick grid holds \
       the tenant's times)"
      step

let pp_decision ppf = function
  | Accepted iface -> Format.fprintf ppf "accepted %a" Mpr.pp iface
  | Rejected r -> Format.fprintf ppf "rejected: %a" pp_reason r

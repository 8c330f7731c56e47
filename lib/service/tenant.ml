module Rat = Rt_util.Rat
module Json = Rt_util.Json
module Network = Fppn.Network
module Process = Fppn.Process
module Derive = Taskgraph.Derive
module Engine = Runtime.Engine

type plan = {
  net : Network.t;
  wcet : Derive.wcet_map;
  inputs : Fppn.Netstate.input_feed;
  derive : Derive.t;
  schedule : Sched.Static_schedule.t;
  n_procs : int;
}

let build_plan ?pool ?(inputs = Fppn.Netstate.no_inputs) ?derive ~min_procs
    ~max_procs ~wcet net =
  if min_procs < 1 || max_procs < min_procs then
    invalid_arg "Tenant.build_plan: bad processor range";
  let derive =
    match derive with Some d -> d | None -> Derive.derive_exn ~wcet net
  in
  let rec search m =
    if m > max_procs then Error max_procs
    else
      let _, chosen = Sched.List_scheduler.auto ?pool ~n_procs:m derive.Derive.graph in
      match chosen with
      | Some a ->
        Ok { net; wcet; inputs; derive; schedule = a.Sched.List_scheduler.schedule; n_procs = m }
      | None -> search (m + 1)
  in
  search min_procs

type t = {
  name : string;
  plan : plan;
  interface : Mpr.t;
  taskset : Mpr.task list;
  load : Rat.t;
  lower_bound : int;
  mutable epochs_run : int;
  mutable events_consumed : int;
  mutable last_events : (string * Rat.t list) list;
  mutable session : (int * Engine.session) option;  (* with its frames *)
}

let make ~name ~plan ~interface ~taskset ~load ~lower_bound =
  {
    name;
    plan;
    interface;
    taskset;
    load;
    lower_bound;
    epochs_run = 0;
    events_consumed = 0;
    last_events = [];
    session = None;
  }

let hyperperiod t = t.plan.derive.Derive.hyperperiod

let sporadic_events t =
  let net = t.plan.net in
  List.filter_map
    (fun i ->
      let p = Network.process net i in
      if Process.is_sporadic p then Some (Process.name p, Process.event p)
      else None)
    (List.init (Network.n_processes net) Fun.id)

let config t ~frames ~sporadic =
  {
    Engine.platform = Runtime.Platform.create ~n_procs:t.plan.n_procs ();
    exec = Runtime.Exec_time.constant;
    frames;
    sporadic;
    inputs = t.plan.inputs;
  }

type outcome = {
  executed : int;
  misses : int;
  consumed : int;
  unhandled : int;
}

(* the tenant's session for [frames]-frame epochs, built on first use *)
let session t ~frames =
  match t.session with
  | Some (f, s) when f = frames -> s
  | _ ->
    let s =
      Engine.session t.plan.net t.plan.derive t.plan.schedule
        (config t ~frames ~sporadic:[])
    in
    t.session <- Some (frames, s);
    s

let run_epoch t ~frames ~sporadic =
  let r = Engine.run_session (session t ~frames) ~sporadic in
  let unhandled = List.length r.Engine.unhandled_events in
  let consumed =
    List.fold_left (fun acc (_, stamps) -> acc + List.length stamps) 0 sporadic
    - unhandled
  in
  t.epochs_run <- t.epochs_run + 1;
  t.events_consumed <- t.events_consumed + consumed;
  t.last_events <- sporadic;
  {
    executed = r.Engine.stats.Runtime.Exec_trace.executed;
    misses = r.Engine.stats.Runtime.Exec_trace.misses;
    consumed;
    unhandled;
  }

let last_signature t =
  Option.bind t.session (fun (_, s) -> Engine.last_signature s)

let standalone_signature t ~frames =
  let cfg = config t ~frames ~sporadic:t.last_events in
  Engine.signature (Engine.run t.plan.net t.plan.derive t.plan.schedule cfg)

let to_json t =
  Json.Obj
    [
      ("name", Json.Str t.name);
      ("processes", Json.Int (Network.n_processes t.plan.net));
      ("procs", Json.Int t.plan.n_procs);
      ("hyperperiod_ms", Json.Float (Rat.to_float (hyperperiod t)));
      ("load", Json.Float (Rat.to_float t.load));
      ("lower_bound", Json.Int t.lower_bound);
      ("interface", Mpr.to_json t.interface);
      ("epochs_run", Json.Int t.epochs_run);
      ("events_consumed", Json.Int t.events_consumed);
    ]

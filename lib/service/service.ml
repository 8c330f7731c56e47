module Rat = Rt_util.Rat
module Json = Rt_util.Json
module Pool = Rt_util.Pool
module Metrics = Fppn_obs.Metrics

let m_ingested = Metrics.counter "service.events_ingested"
let m_dropped = Metrics.counter "service.events_dropped"
let m_backpressure = Metrics.counter "service.events_backpressure"
let m_epochs = Metrics.counter "service.epochs"
let m_jobs = Metrics.counter "service.jobs_executed"
let m_misses = Metrics.counter "service.deadline_misses"
let g_tenants = Metrics.gauge "service.tenants"

type t = {
  procs : int;
  frames : int;
  queue : Ingest.t;
  mutable residents : Tenant.t list;  (* registration order *)
  mutable bandwidth : Rat.t;  (* Σ Θ/Π over [residents], exact *)
  mutable epochs : int;
  mutable dropped_total : int;
  mutable backpressure_seen : int;  (* Ingest rejects already counted *)
}

type epoch_report = {
  epoch : int;
  events_drained : int;
  events_dropped : int;
  events_consumed : int;
  events_unhandled : int;
  jobs_executed : int;
  deadline_misses : int;
  wall_s : float;
}

let create ?(queue_capacity = 1024) ~procs ~frames () =
  if procs <= 0 then invalid_arg "Service.create: procs <= 0";
  if frames <= 0 then invalid_arg "Service.create: frames <= 0";
  {
    procs;
    frames;
    queue = Ingest.create ~capacity:queue_capacity;
    residents = [];
    bandwidth = Rat.zero;
    epochs = 0;
    dropped_total = 0;
    backpressure_seen = 0;
  }

let procs t = t.procs
let frames t = t.frames
let tenants t = t.residents
let find t name = List.find_opt (fun ten -> ten.Tenant.name = name) t.residents

let resident_interfaces t =
  List.map (fun ten -> ten.Tenant.interface) t.residents

let bandwidth t = t.bandwidth

let register ?pool ?inputs t ~name ~wcet net =
  if find t name <> None then Error (Admission.Duplicate_tenant name)
  else
    match Taskgraph.Derive.derive ~wcet net with
    | Error e ->
      Error
        (Admission.Underivable
           (Format.asprintf "%a" Taskgraph.Derive.pp_error e))
    | Ok derive -> (
      (* the step running, named by the reason if exact arithmetic
         overflows; nothing is mutated before the last one returns *)
      let step = ref "candidate" in
      try
        let cand = Admission.candidate ~name ~wcet net derive in
        let concurrency =
          List.fold_left
            (fun acc ten -> max acc ten.Tenant.interface.Mpr.concurrency)
            0 t.residents
        in
        step := "decide";
        match
          Admission.decide_composed ~procs:t.procs ~bandwidth:t.bandwidth
            ~concurrency cand
        with
        | Admission.Rejected r -> Error r
        | Admission.Accepted interface -> (
          step := "plan";
          let min_procs = max 1 cand.Admission.c_lower_bound in
          match
            Tenant.build_plan ?pool ?inputs ~derive ~min_procs
              ~max_procs:t.procs ~wcet net
          with
          | Error searched -> Error (Admission.No_schedule { procs = searched })
          | Ok plan ->
            let bandwidth = Rat.add t.bandwidth (Mpr.bandwidth interface) in
            let ten =
              Tenant.make ~name ~plan ~interface
                ~taskset:cand.Admission.c_taskset ~load:cand.Admission.c_load
                ~lower_bound:cand.Admission.c_lower_bound
            in
            t.residents <- t.residents @ [ ten ];
            t.bandwidth <- bandwidth;
            Metrics.set_gauge g_tenants
              (float_of_int (List.length t.residents));
            Ok ten)
      with Rat.Overflow -> Error (Admission.Overflow { step = !step }))

let retire t name =
  match find t name with
  | None -> false
  | Some ten ->
    t.residents <- List.filter (( != ) ten) t.residents;
    t.bandwidth <- Rat.sub t.bandwidth (Mpr.bandwidth ten.Tenant.interface);
    Metrics.set_gauge g_tenants (float_of_int (List.length t.residents));
    true

let submit t ~tenant ~process ~stamp =
  let ok =
    Ingest.submit t.queue
      { Ingest.ev_tenant = tenant; ev_process = process; ev_stamp = stamp }
  in
  if ok then Metrics.incr m_ingested;
  ok

let queue_pending t = Ingest.pending t.queue
let backpressure t = Ingest.rejected t.queue

let run_epoch ?pool t =
  let t0 = Fppn_obs.Trace.now_ns () in
  (* account queue-full rejects that accumulated since last epoch *)
  let bp = Ingest.rejected t.queue in
  Metrics.add m_backpressure (bp - t.backpressure_seen);
  t.backpressure_seen <- bp;
  let events = Ingest.drain t.queue in
  let drained = List.length events in
  (* resident name -> its events, newest first *)
  let by_tenant = Hashtbl.create 64 in
  List.iter (fun ten -> Hashtbl.replace by_tenant ten.Tenant.name []) t.residents;
  let unaddressed = ref 0 in
  List.iter
    (fun (ev : Ingest.event) ->
      match Hashtbl.find_opt by_tenant ev.Ingest.ev_tenant with
      | None -> incr unaddressed
      | Some prev -> Hashtbl.replace by_tenant ev.Ingest.ev_tenant (ev :: prev))
    events;
  let work =
    Array.of_list
      (List.map (fun ten -> (ten, Hashtbl.find by_tenant ten.Tenant.name))
         t.residents)
  in
  (* legalization runs in the tenant's own task, beside its epoch *)
  let run (ten, evs) =
    let sporadic, dropped =
      match evs with
      | [] -> ([], 0)
      | evs ->
        let horizon =
          Rat.mul (Rat.of_int t.frames) (Tenant.hyperperiod ten)
        in
        Ingest.legalize
          ~generators:(Tenant.sporadic_events ten)
          ~horizon (List.rev evs)
    in
    (Tenant.run_epoch ten ~frames:t.frames ~sporadic, dropped)
  in
  let outcomes =
    match pool with
    | Some pool -> Pool.parallel_map pool run work
    | None -> Array.map run work
  in
  let sum field =
    Array.fold_left
      (fun acc ((o : Tenant.outcome), _) -> acc + field o)
      0 outcomes
  in
  let dropped =
    Array.fold_left (fun acc (_, d) -> acc + d) !unaddressed outcomes
  in
  let consumed = sum (fun o -> o.consumed) in
  let unhandled = sum (fun o -> o.unhandled) in
  let jobs = sum (fun o -> o.executed) in
  let misses = sum (fun o -> o.misses) in
  t.epochs <- t.epochs + 1;
  t.dropped_total <- t.dropped_total + dropped;
  Metrics.incr m_epochs;
  Metrics.add m_dropped dropped;
  Metrics.add m_jobs jobs;
  Metrics.add m_misses misses;
  let wall_s =
    float_of_int (Fppn_obs.Trace.now_ns () - t0) /. 1e9
  in
  {
    epoch = t.epochs;
    events_drained = drained;
    events_dropped = dropped;
    events_consumed = consumed;
    events_unhandled = unhandled;
    jobs_executed = jobs;
    deadline_misses = misses;
    wall_s;
  }

let verify ?pool t =
  let check ten =
    Option.map
      (fun signature ->
        let standalone = Tenant.standalone_signature ten ~frames:t.frames in
        (ten.Tenant.name, signature = standalone))
      (Tenant.last_signature ten)
  in
  let residents = Array.of_list t.residents in
  let results =
    match pool with
    | Some pool -> Pool.parallel_map pool check residents
    | None -> Array.map check residents
  in
  List.filter_map Fun.id (Array.to_list results)

let epoch_report_to_json r =
  Json.Obj
    [
      ("epoch", Json.Int r.epoch);
      ("events_drained", Json.Int r.events_drained);
      ("events_dropped", Json.Int r.events_dropped);
      ("events_consumed", Json.Int r.events_consumed);
      ("events_unhandled", Json.Int r.events_unhandled);
      ("jobs_executed", Json.Int r.jobs_executed);
      ("deadline_misses", Json.Int r.deadline_misses);
      ("wall_s", Json.Float r.wall_s);
    ]

let status_json t =
  Json.Obj
    [
      ("procs", Json.Int t.procs);
      ("frames", Json.Int t.frames);
      ("epochs", Json.Int t.epochs);
      ("tenants", Json.Arr (List.map Tenant.to_json t.residents));
      ("total_bandwidth", Json.Float (Rat.to_float t.bandwidth));
      ("queue_capacity", Json.Int (Ingest.capacity t.queue));
      ("queue_pending", Json.Int (Ingest.pending t.queue));
      ("events_submitted", Json.Int (Ingest.submitted t.queue));
      ("events_backpressure", Json.Int (Ingest.rejected t.queue));
      ("events_dropped", Json.Int t.dropped_total);
    ]

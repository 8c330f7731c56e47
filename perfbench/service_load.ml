(* service: a closed loop against the multi-tenant service.  One
   generator in the main domain submits a seeded batch of events, runs
   one epoch on a 2-domain pool, then retires the oldest tenant and
   registers a fresh seeded one, so admission is sampled against a full
   resident set.  Admission, ingestion/legalization and many tiny
   engine runs dominate here. *)

open Common
module Pool = Rt_util.Pool
module Prng = Rt_util.Prng
module Service = Fppn_service.Service
module Tenant = Fppn_service.Tenant
module Admission = Fppn_service.Admission

let procs = 4
let domains = 2
let resident = 200
let events_per_epoch = 1024

type state = {
  seed : int;
  pool : Pool.t;
  svc : Service.t;
  prng : Prng.t;
  mutable next : int;  (** index of the next tenant to register *)
}

(* shaped like the service-mixed-m4 stage of bench/main.ml, with four
   periodic processes instead of two so that few tenants draw a single
   period and the tenant mix varies less from seed to seed *)
let tenant seed i =
  let params =
    {
      Fppn_apps.Randgen.seed = (seed * 1_000_003) + (7919 * i);
      n_periodic = 4;
      n_sporadic = 1;
      periods = [ 50; 100 ];
      channel_density = 0.4;
      max_burst = 2;
    }
  in
  let net = Fppn_apps.Randgen.network params in
  let wcet =
    Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 2000) (Derive.const_wcet Rat.one) net
  in
  (Printf.sprintf "t%05d" i, net, wcet)

(* The traced run also times, on the same candidate, the public steps
   Service.register composes: derive, candidate, interface, decide and
   build_plan.  They repeat register's work, so only the traced run
   pays for them. *)
let admission_split st acc ~name ~wcet net =
  let d = derive acc ~wcet net in
  let cand = span "service.candidate" (fun () -> Admission.candidate ~name ~wcet net d) in
  ignore
    (span "service.interface" (fun () ->
         Fppn_service.Mpr.generate_interface cand.Admission.c_taskset));
  match
    span "service.decide" (fun () ->
        Admission.decide ~procs ~resident:(Service.resident_interfaces st.svc) cand)
  with
  | Admission.Rejected _ -> ()
  | Admission.Accepted _ ->
    ignore
      (span "service.build_plan" (fun () ->
           Tenant.build_plan ~derive:d
             ~min_procs:(max 1 cand.Admission.c_lower_bound)
             ~max_procs:procs ~wcet net))

let admit st acc =
  let name, net, wcet = span "apps.build" (fun () -> tenant st.seed st.next) in
  st.next <- st.next + 1;
  if Trace.enabled () then admission_split st acc ~name ~wcet net;
  let r, dt =
    timed (fun () -> span "service.register" (fun () -> Service.register st.svc ~name ~wcet net))
  in
  acc.admit_ns <- sample dt :: acc.admit_ns;
  acc.attempted <- acc.attempted + 1;
  if Result.is_error r then acc.failed <- acc.failed + 1;
  Calib.tick ()

let setup ~seed acc =
  let pool, svc =
    span "service.create" (fun () ->
        ( Pool.create ~jobs:domains,
          Service.create ~queue_capacity:8192 ~procs ~frames:2 () ))
  in
  let st = { seed; pool; svc; prng = Prng.create seed; next = 0 } in
  let t0 = now_ns () in
  for _ = 1 to resident do
    admit st acc
  done;
  acc.plan_ns <- sample (now_ns () - t0) :: acc.plan_ns;
  st

(* event targets: every resident tenant with a sporadic process, with
   stamps drawn over its two-frame epoch *)
let targets st =
  Array.of_list
    (List.filter_map
       (fun ten ->
         match Tenant.sporadic_events ten with
         | [] -> None
         | sp ->
           let horizon = int_of_float (Rat.to_float (Tenant.hyperperiod ten)) * 2 in
           Some (ten.Tenant.name, Array.of_list (List.map fst sp), max 1 horizon))
       (Service.tenants st.svc))

let step st acc ~harvest =
  let targets = targets st in
  span "service.submit" (fun () ->
      for _ = 1 to events_per_epoch do
        let tenant, processes, horizon =
          targets.(Prng.int st.prng (Array.length targets))
        in
        let process = processes.(Prng.int st.prng (Array.length processes)) in
        let stamp = Rat.of_int (Prng.int st.prng horizon) in
        acc.attempted <- acc.attempted + 1;
        if not (Service.submit st.svc ~tenant ~process ~stamp) then begin
          acc.failed <- acc.failed + 1;
          acc.backpressure <- acc.backpressure + 1
        end
      done);
  acc.submitted <- acc.submitted + events_per_epoch;
  harvest `Op;
  let r, dt =
    timed (fun () -> span "service.run_epoch" (fun () -> Service.run_epoch ~pool:st.pool st.svc))
  in
  acc.epoch_ns <- sample dt :: acc.epoch_ns;
  acc.jobs <- acc.jobs + r.Service.jobs_executed;
  acc.exec_ns <- acc.exec_ns + dt;
  acc.events_drained <- acc.events_drained + r.Service.events_drained;
  acc.events_thinned <- acc.events_thinned + r.Service.events_dropped;
  harvest `Epoch;
  (match Service.tenants st.svc with
  | oldest :: _ ->
    ignore (span "service.retire" (fun () -> Service.retire st.svc oldest.Tenant.name))
  | [] -> ());
  admit st acc;
  harvest `Op

let check st acc =
  List.iter
    (fun (name, ok) ->
      acc.attempted <- acc.attempted + 1;
      if not ok then begin
        acc.failed <- acc.failed + 1;
        mismatch acc (name ^ ": co-resident signature differs from standalone")
      end)
    (Service.verify ~pool:st.pool st.svc)

let makespan st =
  List.fold_left
    (fun a ten ->
      let p = ten.Tenant.plan in
      a +. makespan_ms p.Tenant.derive p.Tenant.schedule)
    0.0 (Service.tenants st.svc)

let spec =
  {
    Workload.name = "service";
    pool_domains = domains;
    setup;
    step;
    min_steps = 200;
    traced_steps = 300;
    makespan_ms = makespan;
    check;
    teardown = (fun st -> Pool.shutdown st.pool);
  }

(* sporadic: event-driven execution where replay is bypassed because
   every frame carries fresh stamps — the only workload where the
   Sec. IV window assignment, the event loop and Mc_engine dominate.
   The inputs: FMS reduced with seeded pilot commands, automotive with
   its knock bursts, and a seeded HI/LO flight-control system run
   through Mc_engine with uniform execution-time jitter. *)

open Common
module Prng = Rt_util.Prng
module Spec = Mixedcrit.Spec
module Dual_schedule = Mixedcrit.Dual_schedule
module Mc_engine = Mixedcrit.Mc_engine

type state = {
  runs : run list;
  mc_net : Fppn.Network.t;
  mc_spec : Spec.t;
  mc_dual : Dual_schedule.t;
  mc_config : Mc_engine.config;
  mutable hi_misses : int;
  makespan : float;
}

let ms = Rat.of_int
let chains = 3
let mc_frames = 50

(* [chains] HI chains Sensor_i -> Control_i, each followed by a LO
   Logger_i, beside a LO Telemetry_i; every process runs at 100 ms *)
let flight_control () =
  let module V = Fppn.Value in
  let module P = Fppn.Process in
  let b = Fppn.Network.Builder.create "flight-control" in
  let add name body =
    Fppn.Network.Builder.add_process b
      (P.make ~name
         ~event:(Fppn.Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
         (P.Native body))
  in
  for i = 0 to chains - 1 do
    let n s = Printf.sprintf "%s%d" s i in
    add (n "Sensor") (fun ctx -> ctx.P.write (n "meas") (V.Int ctx.P.job_index));
    add (n "Control") (fun ctx ->
        let x = ctx.P.read (n "meas") in
        ctx.P.write (n "cmd") x;
        ctx.P.write (n "actuator") x);
    add (n "Logger") (fun ctx -> ctx.P.write (n "log") (ctx.P.read (n "cmd")));
    add (n "Telemetry") (fun ctx -> ctx.P.write (n "telemetry") (V.Int ctx.P.job_index));
    Fppn.Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard
      ~writer:(n "Sensor") ~reader:(n "Control") (n "meas");
    Fppn.Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard
      ~writer:(n "Control") ~reader:(n "Logger") (n "cmd");
    Fppn.Network.Builder.add_priority b (n "Sensor") (n "Control");
    Fppn.Network.Builder.add_priority b (n "Control") (n "Logger");
    Fppn.Network.Builder.add_output b ~owner:(n "Control") (n "actuator");
    Fppn.Network.Builder.add_output b ~owner:(n "Logger") (n "log");
    Fppn.Network.Builder.add_output b ~owner:(n "Telemetry") (n "telemetry")
  done;
  Fppn.Network.Builder.finish_exn b

(* seeded budgets in narrow ranges, so that the seed moves the inputs
   but hardly the amount of work: C_LO of 5 to 8 ms, C_HI of 1.5x or
   2x C_LO *)
let flight_spec prng =
  let lo = ref [] and hi = ref [] in
  for i = 0 to chains - 1 do
    let n s = Printf.sprintf "%s%d" s i in
    List.iter
      (fun (name, crit) ->
        let c_lo = Prng.int_in prng 5 8 in
        lo := (n name, ms c_lo) :: !lo;
        if crit then hi := (n name, Rat.make (c_lo * Prng.int_in prng 3 4) 2) :: !hi)
      [ ("Sensor", true); ("Control", true); ("Logger", false); ("Telemetry", false) ]
  done;
  Spec.of_list ~default_criticality:Spec.Lo
    ~wcet_lo:(Derive.wcet_of_list Rat.one !lo)
    ~hi:!hi

let plan_engine acc ~label ~procs ~frames ~wcet ~traces net =
  let ((d, _) as plan) = plan_app acc ~label ~procs ~wcet net in
  let horizon = Rat.mul d.Derive.hyperperiod (Rat.of_int frames) in
  make_run ~label net plan
    { (Engine.default_config ~frames ~n_procs:procs ()) with
      Engine.sporadic = handled_traces net d ~frames (traces ~horizon) }

let setup ~seed acc =
  let fms, automotive, mc_net =
    span "apps.build" (fun () ->
        (Fppn_apps.Fms.reduced (), Fppn_apps.Automotive.network (), flight_control ()))
  in
  let t_plan = now_ns () in
  let fms_run =
    plan_engine acc ~label:"fms-reduced" ~procs:2 ~frames:4 ~wcet:Fppn_apps.Fms.wcet
      ~traces:(fun ~horizon ->
        Fppn_apps.Fms.random_config_traces ~seed ~horizon ~density:0.5 fms)
      fms
  in
  let automotive_run =
    plan_engine acc ~label:"automotive" ~procs:2 ~frames:25
      ~wcet:Fppn_apps.Automotive.wcet
      ~traces:(fun ~horizon -> Fppn_apps.Automotive.knock_burst ~horizon)
      automotive
  in
  let prng = Prng.create seed in
  (* redraw until both criticality modes schedule; deterministic in seed *)
  let rec build k =
    let spec = flight_spec prng in
    match
      span "mixedcrit.build" (fun () -> Dual_schedule.build ~n_procs:2 ~spec mc_net)
    with
    | Ok dual -> (spec, dual)
    | Error _ when k > 1 -> build (k - 1)
    | Error e -> failwith (Format.asprintf "flight-control: %a" Dual_schedule.pp_error e)
  in
  let mc_spec, mc_dual = build 32 in
  let dt = now_ns () - t_plan in
  acc.plan_ns <- sample dt :: acc.plan_ns;
  let makespan =
    List.fold_left
      (fun a r -> a +. makespan_ms r.derive r.schedule)
      (Rat.to_float
         (Static_schedule.makespan mc_dual.Dual_schedule.derived.Derive.graph
            mc_dual.Dual_schedule.lo_schedule))
      [ fms_run; automotive_run ]
  in
  {
    runs = [ fms_run; automotive_run ];
    mc_net;
    mc_spec;
    mc_dual;
    mc_config =
      { (Mc_engine.default_config ~frames:mc_frames ~n_procs:2 ()) with
        Mc_engine.exec = Runtime.Exec_time.uniform ~seed ~min_fraction:0.4 };
    hi_misses = 0;
    makespan;
  }

let step st acc ~harvest =
  List.iter
    (fun r ->
      exec_run acc r;
      harvest `Op)
    st.runs;
  let res, dt =
    timed (fun () ->
        span "mixedcrit.run" (fun () ->
            Mc_engine.run st.mc_net ~spec:st.mc_spec st.mc_dual st.mc_config))
  in
  acc.jobs <- acc.jobs + (Exec_trace.stats res.Mc_engine.trace).Exec_trace.executed;
  acc.exec_ns <- acc.exec_ns + dt;
  acc.attempted <- acc.attempted + 1;
  acc.mode_switches <- acc.mode_switches + List.length res.Mc_engine.mode_switches;
  acc.dropped_lo <- acc.dropped_lo + res.Mc_engine.dropped_lo;
  if res.Mc_engine.hi_misses > 0 then begin
    st.hi_misses <- st.hi_misses + res.Mc_engine.hi_misses;
    acc.failed <- acc.failed + 1
  end;
  harvest `Op

let check st acc =
  List.iter (check_run acc) st.runs;
  if st.hi_misses > 0 then
    mismatch acc (Printf.sprintf "flight-control: %d HI deadline misses" st.hi_misses)

let spec =
  {
    Workload.name = "sporadic";
    pool_domains = 1;
    setup;
    step;
    min_steps = 20;
    traced_steps = 150;
    makespan_ms = (fun st -> st.makespan);
    check;
    teardown = ignore;
  }

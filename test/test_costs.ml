(* Deterministic cost pins, one "section name value" line each.

   Every section runs seeded inputs with tracing and metrics on, then
   prints every non-zero Fppn_obs.Metrics counter (search nodes among
   them) and the call count of every span, beside its own sizes: graph
   sizes, mode switches and, with tracing and metrics off, the minor
   words of one derivation, of one List_scheduler.auto call, of a
   memoized engine run, of a service epoch, and the words the epoch
   promotes, of one admission candidate and of one register and retire.  Per-job spans, whose names carry a
   job index [k], are left out.  Each value is fixed by the inputs and
   not by the host's speed, so dune diffs this output against
   test_costs.expected and a moved line names the layer and the counter
   that moved.  A change that means to move a pin regenerates the file
   with [dune promote] and says why.

   Everything runs in the calling domain, with no pool: the engine's
   run memo is per domain, so on a pool the memo hits and compiles
   would depend on which domain ran which run. *)

module Rat = Rt_util.Rat
module Trace = Fppn_obs.Trace
module Metrics = Fppn_obs.Metrics
module Network = Fppn.Network
module Derive = Taskgraph.Derive
module Graph = Taskgraph.Graph
module List_scheduler = Sched.List_scheduler
module Cosched = Sched.Cosched
module Engine = Runtime.Engine
module Service = Fppn_service.Service
module Tenant = Fppn_service.Tenant
module Admission = Fppn_service.Admission
module Mc_engine = Mixedcrit.Mc_engine
module Spec = Mixedcrit.Spec
module Dual_schedule = Mixedcrit.Dual_schedule

let ms = Rat.of_int
let pin section name v = Printf.printf "%s %s %d\n" section name v

(* [f ()] traced and metered from zero; then its counters and span calls,
   each name behind [label] *)
let measured ?(label = "") section f =
  Metrics.reset ();
  Trace.reset ();
  Metrics.set_enabled true;
  Trace.set_enabled true;
  let r = f () in
  Metrics.set_enabled false;
  Trace.set_enabled false;
  List.iter
    (fun (name, v) -> if v <> 0 then pin section (label ^ name) v)
    (Metrics.counters ());
  Trace.hotspots ()
  |> List.filter (fun (h : Trace.hotspot) -> not (String.contains h.hname '['))
  |> List.sort (fun (a : Trace.hotspot) b -> String.compare a.hname b.hname)
  |> List.iter (fun (h : Trace.hotspot) ->
         pin section (label ^ h.hname ^ ".calls") h.calls);
  r

let schedule ~n_procs d =
  match snd (List_scheduler.auto ~n_procs d.Derive.graph) with
  | Some a -> a.List_scheduler.schedule
  | None -> failwith "unschedulable"

(* Words allocated by one memoized run, tracing and metrics off: a first
   call fills the memo and builds the replay program (or warms up a
   call that keeps nothing), and the measured one starts from an empty
   minor heap, so no collection falls inside its window. *)
let minor_words run =
  run ();
  Gc.minor ();
  let w0 = Gc.minor_words () in
  run ();
  int_of_float (Gc.minor_words () -. w0)

let toolchain () =
  let s = "toolchain" in
  let fms_d =
    measured s (fun () ->
        let text = In_channel.with_open_bin "sensor_fusion.fppn" In_channel.input_all in
        let net = Fppn_lang.Elaborate.to_network (Fppn_lang.Parser.parse text) in
        pin s "sensor_fusion.processes" (Network.n_processes net);
        pin s "sensor_fusion.channels" (List.length (Network.channels net));
        let fms = Fppn_apps.Fms.original () in
        let d = Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet fms in
        pin s "fms-original.jobs" (Graph.n_jobs d.Derive.graph);
        pin s "fms-original.raw_edges" d.Derive.raw_edges;
        pin s "fms-original.edges" (Graph.n_edges d.Derive.graph);
        ignore (List_scheduler.auto ~n_procs:2 d.Derive.graph);
        let p = Fppn_apps.Fft.default_params in
        let cert =
          Fppn_lint.Certificate.of_network
            ~wcet:(fun n -> Some (Fppn_apps.Fft.wcet_map p n))
            (Fppn_apps.Fft.network p)
        in
        pin s "fft.certificate.classes" cert.Fppn_lint.Certificate.classes;
        pin s "fft.certificate.channels"
          (List.length cert.Fppn_lint.Certificate.channels);
        d)
  in
  (* one derivation: the job sequence, the reduction sweep and the
     frozen graph *)
  let fms = Fppn_apps.Fms.original () in
  pin s "fms-original.derive.minor_words"
    (minor_words (fun () ->
         ignore (Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet fms)));
  (* one auto call: its compiled view and five rank-and-schedule runs *)
  pin s "fms-original.sched.auto.minor_words"
    (minor_words (fun () ->
         ignore (List_scheduler.auto ~n_procs:2 fms_d.Derive.graph)))

(* fig1 replays its steady frames; Alloc_probe's bodies allocate
   nothing, so its 4- and 40-frame runs allocate alike exactly when
   the replayed frames allocate nothing *)
let periodic () =
  let s = "periodic" in
  let fig1 = Fppn_apps.Fig1.network () in
  let fig1_d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet fig1 in
  let fig1_sched = schedule ~n_procs:2 fig1_d in
  let fig1_config = Engine.default_config ~frames:40 ~n_procs:2 () in
  let fig1_run () = ignore (Engine.run fig1 fig1_d fig1_sched fig1_config) in
  measured s (fun () ->
      fig1_run ();
      fig1_run ();
      fig1_run ());
  pin s "fig1.40_frames.minor_words" (minor_words fig1_run);
  let probe = Fppn_apps.Alloc_probe.network () in
  let probe_d = Derive.derive_exn ~wcet:Fppn_apps.Alloc_probe.wcet probe in
  let probe_sched = schedule ~n_procs:2 probe_d in
  List.iter
    (fun frames ->
      let config = Engine.default_config ~frames ~n_procs:2 () in
      pin s
        (Printf.sprintf "alloc_probe.%d_frames.minor_words" frames)
        (minor_words (fun () ->
             ignore (Engine.run probe probe_d probe_sched config))))
    [ 4; 40 ]

(* a HI chain Sensor -> Control beside LO Logger and Telemetry, with
   jittered durations that overrun C_LO in some frames *)
let flight_control () =
  let module P = Fppn.Process in
  let b = Network.Builder.create "flight-control" in
  let add name body =
    Network.Builder.add_process b
      (P.make ~name
         ~event:(Fppn.Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
         (P.Native body))
  in
  add "Sensor" (fun ctx -> ctx.P.write "meas" (Fppn.Value.Int ctx.P.job_index));
  add "Control" (fun ctx -> ctx.P.write "cmd" (ctx.P.read "meas"));
  add "Logger" (fun ctx -> ctx.P.write "log" (ctx.P.read "cmd"));
  add "Telemetry" (fun ctx -> ctx.P.write "telemetry" (Fppn.Value.Int ctx.P.job_index));
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"Sensor"
    ~reader:"Control" "meas";
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"Control"
    ~reader:"Logger" "cmd";
  Network.Builder.add_priority b "Sensor" "Control";
  Network.Builder.add_priority b "Control" "Logger";
  Network.Builder.add_output b ~owner:"Logger" "log";
  Network.Builder.add_output b ~owner:"Telemetry" "telemetry";
  Network.Builder.finish_exn b

let sporadic () =
  let s = "sporadic" in
  let fms = Fppn_apps.Fms.reduced () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet fms in
  let sched = schedule ~n_procs:2 d in
  let frames = 4 in
  let traces =
    Fppn_apps.Fms.random_config_traces ~seed:1
      ~horizon:(Rat.mul d.Derive.hyperperiod (Rat.of_int frames))
      ~density:0.5 fms
  in
  let config =
    { (Engine.default_config ~frames ~n_procs:2 ()) with
      Engine.sporadic = Engine.handled_traces fms d ~frames traces }
  in
  measured ~label:"fms." s (fun () -> ignore (Engine.run fms d sched config));
  let net = flight_control () in
  let spec =
    Spec.of_list ~default_criticality:Spec.Lo
      ~wcet_lo:(Derive.wcet_of_list (ms 30) [ ("Sensor", ms 15); ("Control", ms 20) ])
      ~hi:[ ("Sensor", ms 40); ("Control", ms 55) ]
  in
  let dual = Dual_schedule.build_exn ~n_procs:2 ~spec net in
  let config =
    { (Mc_engine.default_config ~frames:20 ~n_procs:2 ()) with
      Mc_engine.exec = Runtime.Exec_time.uniform ~seed:11 ~min_fraction:0.3 }
  in
  let r = measured ~label:"mc." s (fun () -> Mc_engine.run net ~spec dual config) in
  pin s "mc.mode_switches" (List.length r.Mc_engine.mode_switches);
  pin s "mc.dropped_lo" r.Mc_engine.dropped_lo;
  pin s "mc.hi_misses" r.Mc_engine.hi_misses

(* 20 seeded Randgen tenants on M = 4, then 3 epochs of 256 seeded
   submits each; then, with tracing and metrics off, a fourth epoch's
   minor words and the words that survive it: those a [Gc.minor ()]
   promotes at its end, one at its start having emptied the minor heap.
   The tenants' sessions are built by then, so the fourth epoch pins
   the steady cost of an epoch and what it leaves for the major heap. *)
let fixture_tenant i =
  let params =
    {
      Fppn_apps.Randgen.seed = 1_000_003 + (7919 * i);
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
  (Printf.sprintf "t%02d" i, net, wcet)

let service () =
  let s = "service" in
  let svc, submit =
    measured s (fun () ->
      let svc = Service.create ~queue_capacity:1024 ~procs:4 ~frames:2 () in
      for i = 0 to 19 do
        let name, net, wcet = fixture_tenant i in
        ignore (Service.register svc ~name ~wcet net)
      done;
      pin s "tenants.admitted" (List.length (Service.tenants svc));
      let targets =
        Array.of_list
          (List.filter_map
             (fun ten ->
               match Tenant.sporadic_events ten with
               | [] -> None
               | sp ->
                 let horizon = int_of_float (Rat.to_float (Tenant.hyperperiod ten)) * 2 in
                 Some (ten.Tenant.name, Array.of_list (List.map fst sp), max 1 horizon))
             (Service.tenants svc))
      in
      let prng = Rt_util.Prng.create 1 in
      let submit () =
        for _ = 1 to 256 do
          let tenant, processes, horizon =
            targets.(Rt_util.Prng.int prng (Array.length targets))
          in
          let process = processes.(Rt_util.Prng.int prng (Array.length processes)) in
          let stamp = Rat.of_int (Rt_util.Prng.int prng horizon) in
          ignore (Service.submit svc ~tenant ~process ~stamp)
        done
      in
      for _ = 1 to 3 do
        submit ();
        ignore (Service.run_epoch svc)
      done;
      (svc, submit))
  in
  submit ();
  Gc.minor ();
  let w0 = Gc.minor_words () and p0 = (Gc.quick_stat ()).Gc.promoted_words in
  ignore (Service.run_epoch svc);
  let w1 = Gc.minor_words () in
  Gc.minor ();
  pin s "service.epoch.minor_words" (int_of_float (w1 -. w0));
  pin s "service.epoch.survivor_words"
    (int_of_float ((Gc.quick_stat ()).Gc.promoted_words -. p0));
  (* admission: one Prop. 3.1 candidate on FMS original, then one
     register and retire of a 21st tenant beside the 20 *)
  let fms = Fppn_apps.Fms.original () in
  let fms_d = Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet fms in
  pin s "fms-original.admission.candidate.minor_words"
    (minor_words (fun () ->
         ignore
           (Admission.candidate ~name:"fms-original" ~wcet:Fppn_apps.Fms.wcet
              fms fms_d)));
  let name, net, wcet = fixture_tenant 20 in
  pin s "register.minor_words"
    (minor_words (fun () ->
         ignore (Service.register svc ~name ~wcet net);
         ignore (Service.retire svc name)))

let fuzz () =
  measured "fuzz" (fun () ->
      ignore
        (Fppn_fuzz.Campaign.run ~jobs:1
           { Fppn_fuzz.Campaign.default_config with budget = 40 }))

(* Randgen seed 101 at M = 2, the search cut at 20 000 nodes *)
let exact () =
  let params =
    { Fppn_apps.Randgen.default_params with seed = 101; n_periodic = 4; n_sporadic = 1 }
  in
  let net = Fppn_apps.Randgen.network params in
  let wcet = Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 8) (Derive.const_wcet Rat.one) net in
  let g = (Derive.derive_exn ~wcet net).Derive.graph in
  pin "exact" "graph.jobs" (Graph.n_jobs g);
  measured "exact" (fun () ->
      ignore (Sched.Exact.solve ~node_budget:20_000 ~n_procs:2 g))

let cosched () =
  let graph wcet net = (Derive.derive_exn ~wcet net).Derive.graph in
  let apps =
    [
      { Cosched.app_name = "fms"; app_priority = 0;
        graph = graph Fppn_apps.Fms.wcet (Fppn_apps.Fms.reduced ()) };
      { Cosched.app_name = "automotive"; app_priority = 1;
        graph = graph Fppn_apps.Automotive.wcet (Fppn_apps.Automotive.network ()) };
    ]
  in
  List.iter
    (fun variant ->
      measured ~label:(Cosched.variant_to_string variant ^ ".") "cosched" (fun () ->
          ignore (Cosched.auto ~variant ~n_procs:4 apps)))
    [ Cosched.Fair; Cosched.Slots ]

let () =
  toolchain ();
  periodic ();
  sporadic ();
  service ();
  fuzz ();
  exact ();
  cosched ()

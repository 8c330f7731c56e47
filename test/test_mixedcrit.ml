(* Tests for the mixed-criticality extension (the paper's "mixed-critical
   scheduling" future-work item): dual schedules, the path-preserving
   graph restriction, and the mode-switched engine. *)

module Rat = Rt_util.Rat
module V = Fppn.Value
module Event = Fppn.Event
module Process = Fppn.Process
module Network = Fppn.Network
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job
module Derive = Taskgraph.Derive
module Spec = Mixedcrit.Spec
module Dual_schedule = Mixedcrit.Dual_schedule
module Mc_engine = Mixedcrit.Mc_engine
module Exec_time = Runtime.Exec_time
module Exec_trace = Runtime.Exec_trace
module Engine = Runtime.Engine
module Automotive = Fppn_apps.Automotive

let ms = Rat.of_int

let qtest ?(count = 100) ~name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- Graph.induced / map_wcet --------------------------------------------- *)

let mk_job id name a d c =
  {
    Job.id;
    proc = id;
    proc_name = name;
    k = 1;
    arrival = ms a;
    deadline = ms d;
    wcet = ms c;
    is_server = false;
  }

let test_induced_preserves_paths () =
  (* A -> B -> C; dropping B must keep A -> C *)
  let jobs = [| mk_job 0 "A" 0 100 10; mk_job 1 "B" 0 100 10; mk_job 2 "C" 0 100 10 |] in
  let g = Graph.of_succs jobs [| [ 1 ]; [ 2 ]; [] |] in
  let g', back = Graph.induced ~keep:(fun j -> j.Job.proc_name <> "B") g in
  Alcotest.(check int) "two jobs kept" 2 (Graph.n_jobs g');
  Alcotest.(check (array int)) "id mapping" [| 0; 2 |] back;
  Alcotest.(check bool) "A -> C edge through the dropped job" true
    (Graph.has_edge g' 0 1);
  Alcotest.(check bool) "no jobs kept rejected" true
    (try
       ignore (Graph.induced ~keep:(fun _ -> false) g);
       false
     with Invalid_argument _ -> true)

let test_map_wcet () =
  let jobs = [| mk_job 0 "A" 0 100 10 |] in
  let g = Graph.of_succs jobs [| [] |] in
  let g' = Graph.map_wcet (fun _ -> ms 42) g in
  Alcotest.(check bool) "wcet replaced" true
    (Rat.equal (Graph.job g' 0).Job.wcet (ms 42));
  Alcotest.(check bool) "original untouched" true
    (Rat.equal (Graph.job g 0).Job.wcet (ms 10))

(* --- the MC scenario -------------------------------------------------------- *)

(* HI control chain Sensor -> Control (period 100) plus two best-effort
   LO processes (Logger, Telemetry) on 2 processors. *)
let mc_net () =
  let b = Network.Builder.create "mc" in
  let add name body =
    Network.Builder.add_process b
      (Process.make ~name
         ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
         (Process.Native body))
  in
  add "Sensor" (fun ctx -> ctx.Process.write "meas" (V.Int ctx.Process.job_index));
  add "Control" (fun ctx ->
      let x = ctx.Process.read "meas" in
      ctx.Process.write "cmd" x;
      ctx.Process.write "act_out" x);
  add "Logger" (fun ctx -> ctx.Process.write "log_out" (ctx.Process.read "cmd"));
  add "Telemetry" (fun ctx ->
      ctx.Process.write "tm_out" (V.Int ctx.Process.job_index));
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"Sensor"
    ~reader:"Control" "meas";
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"Control"
    ~reader:"Logger" "cmd";
  Network.Builder.add_priority b "Sensor" "Control";
  Network.Builder.add_priority b "Control" "Logger";
  Network.Builder.add_output b ~owner:"Control" "act_out";
  Network.Builder.add_output b ~owner:"Logger" "log_out";
  Network.Builder.add_output b ~owner:"Telemetry" "tm_out";
  Network.Builder.finish_exn b

let mc_spec () =
  Spec.of_list ~default_criticality:Spec.Lo
    ~wcet_lo:
      (Derive.wcet_of_list (ms 30)
         [ ("Sensor", ms 15); ("Control", ms 20) ])
    ~hi:[ ("Sensor", ms 40); ("Control", ms 55) ]

let test_spec_accessors () =
  let spec = mc_spec () in
  Alcotest.(check bool) "Sensor is HI" true (Spec.criticality spec "Sensor" = Spec.Hi);
  Alcotest.(check bool) "Logger is LO" true (Spec.criticality spec "Logger" = Spec.Lo);
  Alcotest.(check bool) "C_LO" true (Rat.equal (Spec.wcet_lo spec "Sensor") (ms 15));
  Alcotest.(check bool) "C_HI for HI" true (Rat.equal (Spec.wcet_hi spec "Sensor") (ms 40));
  Alcotest.(check bool) "C_HI = C_LO for LO" true
    (Rat.equal (Spec.wcet_hi spec "Logger") (ms 30))

let test_spec_rejects_inverted_budgets () =
  let bad =
    Spec.of_list ~default_criticality:Spec.Lo
      ~wcet_lo:(Derive.const_wcet (ms 50))
      ~hi:[ ("X", ms 10) ]
  in
  Alcotest.(check bool) "C_HI < C_LO rejected" true
    (try
       ignore (Spec.wcet_hi bad "X");
       false
     with Invalid_argument _ -> true)

let test_dual_schedule_build () =
  let dual = Dual_schedule.build_exn ~n_procs:2 ~spec:(mc_spec ()) (mc_net ()) in
  let full = dual.Dual_schedule.derived.Derive.graph in
  Alcotest.(check int) "full graph: 4 jobs" 4 (Graph.n_jobs full);
  let hi = Option.get dual.Dual_schedule.hi in
  Alcotest.(check int) "hi graph: 2 jobs" 2 (Graph.n_jobs hi.Dual_schedule.hi_graph);
  (* HI graph carries the conservative budgets *)
  Array.iter
    (fun j ->
      let expected = if j.Job.proc_name = "Sensor" then ms 40 else ms 55 in
      Alcotest.(check bool) (j.Job.proc_name ^ " C_HI") true
        (Rat.equal j.Job.wcet expected))
    (Graph.jobs hi.Dual_schedule.hi_graph);
  (* precedence Sensor -> Control survives the restriction *)
  Alcotest.(check bool) "hi edge kept" true
    (Graph.has_edge hi.Dual_schedule.hi_graph 0 1)

let test_dual_schedule_infeasible () =
  (* conservative budgets too large for the 100 ms frame *)
  let spec =
    Spec.of_list ~default_criticality:Spec.Lo
      ~wcet_lo:(Derive.wcet_of_list (ms 10) [ ("Sensor", ms 15); ("Control", ms 20) ])
      ~hi:[ ("Sensor", ms 60); ("Control", ms 60) ]
  in
  match Dual_schedule.build ~n_procs:2 ~spec (mc_net ()) with
  | Error Dual_schedule.Hi_infeasible -> ()
  | Error e ->
    Alcotest.failf "expected Hi_infeasible, got %s"
      (Format.asprintf "%a" Dual_schedule.pp_error e)
  | Ok _ -> Alcotest.fail "expected infeasibility"

(* A HI budget below its LO budget is a build error naming the process,
   not an exception. *)
let test_dual_schedule_inverted_budgets () =
  let b = Network.Builder.create "one" in
  Network.Builder.add_process b
    (Process.make ~name:"S"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native (fun _ -> ())));
  let spec =
    Spec.of_list ~default_criticality:Spec.Lo
      ~wcet_lo:(Derive.const_wcet (ms 15))
      ~hi:[ ("S", ms 10) ]
  in
  match Dual_schedule.build ~n_procs:1 ~spec (Network.Builder.finish_exn b) with
  | Error (Dual_schedule.Inverted_budgets name) ->
    Alcotest.(check string) "names the process" "S" name
  | Error e ->
    Alcotest.failf "expected Inverted_budgets, got %a" Dual_schedule.pp_error e
  | Ok _ -> Alcotest.fail "expected an error"

let run_mc ?(frames = 3) ~exec () =
  let net = mc_net () in
  let spec = mc_spec () in
  let dual = Dual_schedule.build_exn ~n_procs:2 ~spec net in
  let config = { (Mc_engine.default_config ~frames ~n_procs:2 ()) with Mc_engine.exec } in
  Mc_engine.run net ~spec dual config

let test_no_overrun_stays_in_lo () =
  (* true durations at the optimistic budgets: never degrade *)
  let spec = mc_spec () in
  let exec = Exec_time.profile (Spec.wcet_lo spec) in
  let r = run_mc ~exec () in
  Alcotest.(check (list (pair int (testable Rat.pp Rat.equal)))) "no switches" []
    r.Mc_engine.mode_switches;
  Alcotest.(check int) "nothing dropped" 0 r.Mc_engine.dropped_lo;
  Alcotest.(check int) "no HI misses" 0 r.Mc_engine.hi_misses;
  Alcotest.(check int) "no LO misses" 0 r.Mc_engine.lo_misses;
  (* LO-mode behavior equals the zero-delay reference *)
  let net = mc_net () in
  let zd =
    Fppn.Semantics.run net (Fppn.Semantics.invocations ~horizon:(ms 300) net)
  in
  Alcotest.(check bool) "deterministic in LO mode" true
    (List.equal
       (fun (n1, h1) (n2, h2) -> n1 = n2 && List.equal V.equal h1 h2)
       (Fppn.Semantics.signature zd)
       (Mc_engine.signature r))

let test_overrun_degrades_and_protects_hi () =
  (* every HI job runs to its conservative budget: every frame degrades *)
  let spec = mc_spec () in
  let exec = Exec_time.profile (Spec.wcet_hi spec) in
  let r = run_mc ~frames:3 ~exec () in
  Alcotest.(check int) "every frame switches" 3
    (List.length r.Mc_engine.mode_switches);
  Alcotest.(check bool) "LO jobs dropped" true (r.Mc_engine.dropped_lo > 0);
  Alcotest.(check int) "HI deadlines protected" 0 r.Mc_engine.hi_misses;
  (* HI outputs still present every frame; Logger output starved in
     degraded frames *)
  let act = List.assoc "act_out" r.Mc_engine.output_history in
  Alcotest.(check int) "three control commands" 3 (List.length act);
  let log = List.assoc "log_out" r.Mc_engine.output_history in
  Alcotest.(check bool) "logger starved" true (List.length log < 3)

let test_switch_instant_is_the_budget_expiry () =
  let spec = mc_spec () in
  let exec = Exec_time.profile (Spec.wcet_hi spec) in
  let r = run_mc ~frames:1 ~exec () in
  match r.Mc_engine.mode_switches with
  | [ (0, t) ] ->
    (* Sensor starts at 0 and overruns its 15 ms budget *)
    Alcotest.(check bool) "switch at the Sensor budget expiry" true
      (Rat.equal t (ms 15))
  | l -> Alcotest.failf "expected one switch, got %d" (List.length l)

let test_partial_overrun_pattern () =
  (* jittered durations across many frames: some degrade, some do not;
     the HI guarantee must hold in every frame *)
  let exec = Exec_time.uniform ~seed:11 ~min_fraction:0.3 in
  let r = run_mc ~frames:20 ~exec () in
  let switches = List.length r.Mc_engine.mode_switches in
  Alcotest.(check bool) "some frames degraded" true (switches > 0);
  Alcotest.(check bool) "some frames clean" true (switches < 20);
  Alcotest.(check int) "HI never misses" 0 r.Mc_engine.hi_misses;
  (* consistency: dropped LO jobs only in degraded frames *)
  let degraded = List.map fst r.Mc_engine.mode_switches in
  List.iter
    (fun (rec_ : Exec_trace.record) ->
      if rec_.Exec_trace.skipped then
        Alcotest.(check bool)
          (Printf.sprintf "drop of %s only in a degraded frame" rec_.Exec_trace.label)
          true
          (List.mem rec_.Exec_trace.frame degraded))
    r.Mc_engine.trace

(* With no HI processes the MC engine must coincide with the plain
   runtime on the same schedule. *)
let test_all_lo_equals_plain_engine () =
  let net = mc_net () in
  let spec =
    Spec.of_list ~default_criticality:Spec.Lo
      ~wcet_lo:(Taskgraph.Derive.wcet_of_list (ms 30)
                  [ ("Sensor", ms 15); ("Control", ms 20) ])
      ~hi:[]
  in
  let dual = Dual_schedule.build_exn ~n_procs:2 ~spec net in
  let mc =
    Mc_engine.run net ~spec dual
      (Mc_engine.default_config ~frames:3 ~n_procs:2 ())
  in
  let plain =
    Runtime.Engine.run net dual.Dual_schedule.derived
      dual.Dual_schedule.lo_schedule
      (Runtime.Engine.default_config ~frames:3 ~n_procs:2 ())
  in
  let reference =
    Exec_rat.run net dual.Dual_schedule.derived
      dual.Dual_schedule.lo_schedule
      (Runtime.Engine.default_config ~frames:3 ~n_procs:2 ())
  in
  Alcotest.(check bool) "trace equals the reference core's" true
    (mc.Mc_engine.trace = Runtime.Engine.trace reference);
  Alcotest.(check bool) "no switches" true (mc.Mc_engine.mode_switches = []);
  Alcotest.(check bool) "identical channel histories" true
    (List.equal
       (fun (n1, h1) (n2, h2) -> n1 = n2 && List.equal V.equal h1 h2)
       (Mc_engine.signature mc)
       (Runtime.Engine.signature plain));
  (* traces coincide record for record *)
  Alcotest.(check int) "same record count"
    (List.length (Runtime.Engine.trace plain))
    (List.length mc.Mc_engine.trace)

(* The same through the sporadic servers: automotive knock bursts,
   no HI process.  'false' server slots are skipped, never dropped. *)
let test_all_lo_sporadic_servers () =
  let net = Automotive.network () in
  let spec =
    Spec.of_list ~default_criticality:Spec.Lo ~wcet_lo:Automotive.wcet ~hi:[]
  in
  let dual = Dual_schedule.build_exn ~n_procs:2 ~spec net in
  let frames = 4 in
  let sporadic =
    Automotive.knock_burst
      ~horizon:
        (Rat.mul dual.Dual_schedule.derived.Derive.hyperperiod
           (Rat.of_int frames))
  in
  let inputs = Automotive.input_feed in
  let mc =
    Mc_engine.run net ~spec dual
      { (Mc_engine.default_config ~frames ~n_procs:2 ()) with
        Mc_engine.sporadic; inputs }
  in
  let config =
    { (Engine.default_config ~frames ~n_procs:2 ()) with
      Engine.sporadic; inputs }
  in
  let plain =
    Engine.run net dual.Dual_schedule.derived dual.Dual_schedule.lo_schedule
      config
  in
  let reference =
    Exec_rat.run net dual.Dual_schedule.derived
      dual.Dual_schedule.lo_schedule config
  in
  Alcotest.(check bool) "no switches" true (mc.Mc_engine.mode_switches = []);
  Alcotest.(check int) "nothing dropped" 0 mc.Mc_engine.dropped_lo;
  Alcotest.(check bool) "identical channel histories" true
    (List.equal
       (fun (n1, h1) (n2, h2) -> n1 = n2 && List.equal V.equal h1 h2)
       (Mc_engine.signature mc) (Engine.signature plain));
  Alcotest.(check bool) "trace equals the reference core's" true
    (mc.Mc_engine.trace = Engine.trace reference);
  Alcotest.(check bool) "some server slots skipped" true
    (List.exists (fun (r : Exec_trace.record) -> r.skipped) mc.Mc_engine.trace)

let test_rejects_foreign_sporadic_names () =
  let net = mc_net () in
  let spec = mc_spec () in
  let dual = Dual_schedule.build_exn ~n_procs:2 ~spec net in
  List.iter
    (fun name ->
      let config =
        { (Mc_engine.default_config ~frames:2 ~n_procs:2 ()) with
          Mc_engine.sporadic = [ (name, [ ms 5 ]) ] }
      in
      Alcotest.(check bool)
        (Printf.sprintf "events for %s rejected" name)
        true
        (try
           ignore (Mc_engine.run net ~spec dual config);
           false
         with Invalid_argument _ -> true))
    [ "Nope"; "Logger" ]

(* A degraded frame drops the LO jobs a processor reaches at once, even
   before their invocation: HI overruns of the injection loop degrade
   every frame early, and the later ignition jobs are shed as soon as
   their processor reaches them. *)
let test_drop_before_invocation () =
  let net = Automotive.network () in
  let spec =
    Spec.of_list ~default_criticality:Spec.Lo ~wcet_lo:Automotive.wcet
      ~hi:[ ("CrankSensor", ms 3); ("InjectionCtrl", ms 6) ]
  in
  let dual = Dual_schedule.build_exn ~n_procs:2 ~spec net in
  let frames = 3 in
  let r =
    Mc_engine.run net ~spec dual
      { (Mc_engine.default_config ~frames ~n_procs:2 ()) with
        Mc_engine.exec = Exec_time.profile (Spec.wcet_hi spec);
        sporadic =
          Automotive.knock_burst
            ~horizon:
              (Rat.mul dual.Dual_schedule.derived.Derive.hyperperiod
                 (Rat.of_int frames));
        inputs = Automotive.input_feed }
  in
  Alcotest.(check int) "every frame degrades" frames
    (List.length r.Mc_engine.mode_switches);
  Alcotest.(check int) "HI deadlines protected" 0 r.Mc_engine.hi_misses;
  Alcotest.(check bool) "a LO job dropped before its invocation" true
    (List.exists
       (fun (x : Exec_trace.record) -> x.skipped && Rat.(x.start < x.invoked))
       r.Mc_engine.trace)

(* The monitor's invariants under jittered durations: drops are LO jobs
   of degraded frames, skipped no earlier than the switch; each switch
   is the C_LO expiry of a HI job of its frame that was still running
   then; HI jobs never miss. *)
let prop_monitor_invariants =
  let spec = mc_spec () in
  let dual = Dual_schedule.build_exn ~n_procs:2 ~spec (mc_net ()) in
  let job (x : Exec_trace.record) =
    Graph.job dual.Dual_schedule.derived.Derive.graph x.job
  in
  let hi x = Spec.is_hi spec (job x) in
  qtest ~name:"drops, switch instants and HI misses" ~count:60
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 1 20))
    (fun (seed, frames) ->
      let r =
        run_mc ~frames ~exec:(Exec_time.uniform ~seed ~min_fraction:0.3) ()
      in
      let drops =
        List.filter (fun (x : Exec_trace.record) -> x.skipped) r.Mc_engine.trace
      in
      r.Mc_engine.hi_misses = 0
      && List.length drops = r.Mc_engine.dropped_lo
      && List.for_all
           (fun (x : Exec_trace.record) ->
             (not (hi x))
             &&
             match List.assoc_opt x.frame r.Mc_engine.mode_switches with
             | Some t -> Rat.(x.start >= t)
             | None -> false)
           drops
      && List.for_all
           (fun (f, t) ->
             List.exists
               (fun (x : Exec_trace.record) ->
                 x.frame = f && hi x && (not x.skipped)
                 && Rat.equal (Rat.add x.start (Spec.budget_lo spec (job x))) t
                 && Rat.(x.finish > t))
               r.Mc_engine.trace)
           r.Mc_engine.mode_switches)

(* A degrade is no processor transition: a processor polled earlier in
   the same sweep sees it at the next queued wakeup.  Here L waits on A
   on processor 0 while A and B overrun their 10 ms budgets on
   processors 1 and 2; both detections are queued at 10 ms, so the
   second one drops L at 10 ms rather than at A's completion. *)
let test_drop_at_the_next_wakeup () =
  let b = Network.Builder.create "wakeup" in
  let add name body =
    Network.Builder.add_process b
      (Process.make ~name
         ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
         (Process.Native body))
  in
  add "A" (fun ctx -> ctx.Process.write "ab" (V.Int 1));
  add "B" (fun ctx -> ctx.Process.write "b_out" (V.Int 2));
  add "L" (fun ctx -> ctx.Process.write "l_out" (ctx.Process.read "ab"));
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"A"
    ~reader:"L" "ab";
  Network.Builder.add_priority b "A" "L";
  Network.Builder.add_output b ~owner:"B" "b_out";
  Network.Builder.add_output b ~owner:"L" "l_out";
  let net = Network.Builder.finish_exn b in
  let spec =
    Spec.of_list ~default_criticality:Spec.Lo
      ~wcet_lo:(Derive.wcet_of_list (ms 5) [ ("A", ms 10); ("B", ms 10) ])
      ~hi:[ ("A", ms 30); ("B", ms 30) ]
  in
  let derived = Derive.derive_exn ~wcet:(Spec.wcet_lo spec) net in
  let proc_of j =
    match j.Job.proc_name with "L" -> (0, 10) | "A" -> (1, 0) | _ -> (2, 0)
  in
  let lo_schedule =
    Sched.Static_schedule.make ~n_procs:3
      (Array.map
         (fun j ->
           let proc, start = proc_of j in
           { Sched.Static_schedule.proc; start = ms start })
         (Graph.jobs derived.Derive.graph))
  in
  let dual =
    { Dual_schedule.derived; lo_schedule; hi = None;
      heuristic = Sched.Priority.Alap_edf }
  in
  let r =
    Mc_engine.run net ~spec dual
      { (Mc_engine.default_config ~n_procs:3 ()) with
        Mc_engine.exec = Exec_time.profile (Spec.wcet_hi spec) }
  in
  Alcotest.(check (list (pair int (testable Rat.pp Rat.equal))))
    "one switch at the budget expiry" [ (0, ms 10) ] r.Mc_engine.mode_switches;
  let l =
    List.find
      (fun (x : Exec_trace.record) -> x.label = "L[1]")
      r.Mc_engine.trace
  in
  Alcotest.(check bool) "L dropped" true l.skipped;
  Alcotest.(check bool) "at the duplicate wakeup" true
    (Rat.equal l.start (ms 10))

(* --- the monitor on the tick core = the monitor in the rational oracle --- *)

module Randgen = Fppn_apps.Randgen
module Platform = Runtime.Platform

(* One monitored run: the result, the switch list and the drop count. *)
let monitored runner spec net derived sched config =
  let switches = ref [] and drops = ref 0 in
  let monitor =
    {
      Engine.is_hi = Spec.is_hi spec;
      budget_lo = Spec.budget_lo spec;
      on_switch = (fun f t -> switches := (f, t) :: !switches);
      on_drop = (fun () -> incr drops);
    }
  in
  let r = runner ~monitor net derived sched config in
  (r, List.rev !switches, !drops)

let same_monitored (r1, s1, d1) (r2, s2, d2) =
  List.equal (fun (a : Exec_trace.record) b -> a = b) (Engine.trace r1)
    (Engine.trace r2)
  && Engine.channel_history r1 = Engine.channel_history r2
  && Engine.output_history r1 = Engine.output_history r2
  && r1.Engine.stats = r2.Engine.stats
  && r1.Engine.unhandled_events = r2.Engine.unhandled_events
  && List.equal (fun (f, t) (f', t') -> f = f' && Rat.equal t t') s1 s2
  && d1 = d2

(* [Engine.run ~monitor] and [Exec_rat.run ~monitor] on the
   same inputs, as [Mc_engine.run] sets them up: every job's WCET is its
   criticality budget.  Returns both runs. *)
let run_both_monitored ~spec ~exec ~platform ~frames ~sporadic net
    (derived : Derive.t) sched =
  let budget j =
    if Spec.is_hi spec j then Spec.wcet_hi spec j.Job.proc_name
    else Spec.budget_lo spec j
  in
  let derived =
    { derived with Derive.graph = Graph.map_wcet budget derived.Derive.graph }
  in
  let config () =
    {
      Engine.platform;
      exec = exec ();
      frames;
      sporadic;
      inputs = Fppn.Netstate.no_inputs;
    }
  in
  let tick =
    monitored
      (fun ~monitor -> Engine.run ~monitor)
      spec net derived sched (config ())
  in
  let reference =
    monitored
      (fun ~monitor -> Exec_rat.run ~monitor)
      spec net derived sched (config ())
  in
  (tick, reference)

type mc_case = {
  seed : int;
  family : int;
      (* 0 Randgen + list schedule; 1 Randgen + random static schedule,
         order-infeasible ones included; 2 three flight-control chains
         on 3 processors, Sensors and Controls HI, durations uniform
         from 0; 3 flight-control chains with a random HI set *)
  size : int;  (* periodic processes, or chains *)
  n_sporadic : int;
  n_procs : int;
  frames : int;
  hi_mask : int;  (* bit i mod 8: process i is HI *)
  hi_factor : int;  (* C_HI = C_LO * hi_factor / 2; 0: C_LO = 0 *)
  min_fraction : float;
  overhead : int;  (* 0 none, 1 first/steady frame, 2 per access *)
}

let mc_case_print c =
  Printf.sprintf
    "{seed=%d; family=%d; size=%d; sporadic=%d; procs=%d; frames=%d; \
     hi_mask=%d; hi_factor=%d; min_fraction=%g; overhead=%d}"
    c.seed c.family c.size c.n_sporadic c.n_procs c.frames c.hi_mask
    c.hi_factor c.min_fraction c.overhead

let mc_case_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 999_999 in
    let* family = int_range 0 3 in
    let* overhead = int_range 0 2 in
    if family = 2 then
      let+ frames = int_range 1 50 and+ hi_factor = int_range 3 4 in
      {
        seed; family; size = 3; n_sporadic = 0; n_procs = 3; frames;
        hi_mask = 0; hi_factor; min_fraction = 0.; overhead;
      }
    else
      let fc = family = 3 in
      let+ size = if fc then int_range 1 3 else int_range 1 6
      and+ n_sporadic = if fc then pure 0 else int_range 0 2
      and+ n_procs = if fc then int_range 2 3 else int_range 1 3
      and+ frames = if fc then int_range 1 50 else int_range 1 6
      and+ hi_mask = int_range 0 255
      and+ hi_factor = int_range 0 4
      and+ min_fraction = oneofl [ 0.; 0.4; 0.8 ] in
      {
        seed; family; size; n_sporadic; n_procs; frames; hi_mask; hi_factor;
        min_fraction; overhead;
      })

(* [k] HI chains Sensor_i -> Control_i, each followed by a LO Logger_i,
   beside a LO Telemetry_i, all at 100 ms *)
let flight_control k =
  let b = Network.Builder.create "flight-control" in
  let add name body =
    Network.Builder.add_process b
      (Process.make ~name
         ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
         (Process.Native body))
  in
  for i = 0 to k - 1 do
    let n s = Printf.sprintf "%s%d" s i in
    add (n "Sensor") (fun ctx ->
        ctx.Process.write (n "meas") (V.Int ctx.Process.job_index));
    add (n "Control") (fun ctx ->
        ctx.Process.write (n "cmd") (ctx.Process.read (n "meas")));
    add (n "Logger") (fun ctx ->
        ctx.Process.write (n "log") (ctx.Process.read (n "cmd")));
    add (n "Telemetry") (fun ctx ->
        ctx.Process.write (n "tm") (V.Int ctx.Process.job_index));
    Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard
      ~writer:(n "Sensor") ~reader:(n "Control") (n "meas");
    Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard
      ~writer:(n "Control") ~reader:(n "Logger") (n "cmd");
    Network.Builder.add_priority b (n "Sensor") (n "Control");
    Network.Builder.add_priority b (n "Control") (n "Logger");
    Network.Builder.add_output b ~owner:(n "Logger") (n "log");
    Network.Builder.add_output b ~owner:(n "Telemetry") (n "tm")
  done;
  Network.Builder.finish_exn b

(* Runs one case; [None] when the draw has no schedule to run. *)
let run_mc_case c =
  let rng = Rt_util.Prng.create c.seed in
  let net, wcet_lo =
    if c.family >= 2 then
      let net = flight_control c.size in
      (net, fun _ -> ms (Rt_util.Prng.int_in rng 5 8))
    else
      let net =
        Randgen.network
          {
            Randgen.default_params with
            seed = c.seed;
            n_periodic = c.size;
            n_sporadic = c.n_sporadic;
          }
      in
      (net, Randgen.wcet ~scale:(Rat.make 1 25) (Derive.const_wcet Rat.one) net)
  in
  let names =
    List.init (Network.n_processes net) (fun p ->
        Process.name (Network.process net p))
  in
  let wcet_lo = List.map (fun name -> (name, wcet_lo name)) names in
  let hi =
    if c.family = 2 then
      List.filter (fun (name, _) -> name.[0] = 'S' || name.[0] = 'C') wcet_lo
    else List.filteri (fun i _ -> c.hi_mask land (1 lsl (i mod 8)) <> 0) wcet_lo
  in
  let spec =
    Spec.of_list ~default_criticality:Spec.Lo
      ~wcet_lo:(fun name ->
        if c.hi_factor = 0 && List.mem_assoc name hi then Rat.zero
        else List.assoc name wcet_lo)
      ~hi:
        (List.map
           (fun (name, w) ->
             (name, Rat.mul w (Rat.make (max 2 c.hi_factor) 2)))
           hi)
  in
  match Derive.derive ~wcet:(Spec.wcet_lo spec) net with
  | Error _ -> None
  | Ok derived -> (
    let g = derived.Derive.graph in
    let sched =
      if c.family = 1 then
        let h = Rat.to_int_exn derived.Derive.hyperperiod in
        Some
          (Sched.Static_schedule.make ~n_procs:c.n_procs
             (Array.map
                (fun _ ->
                  {
                    Sched.Static_schedule.proc = Rt_util.Prng.int rng c.n_procs;
                    start = ms (Rt_util.Prng.int rng h);
                  })
                (Graph.jobs g)))
      else
        Option.map
          (fun a -> a.Sched.List_scheduler.schedule)
          (snd (Sched.List_scheduler.auto ~n_procs:c.n_procs g))
    in
    match sched with
    | None -> None
    | Some sched ->
      let overhead =
        match c.overhead with
        | 0 -> Platform.no_overhead
        | 1 ->
          {
            Platform.first_frame = Rat.make 7 4;
            steady_frame = Rat.make 1 3;
            per_access = Rat.zero;
          }
        | _ -> { Platform.no_overhead with per_access = Rat.make 1 50 }
      in
      let horizon = Rat.mul derived.Derive.hyperperiod (Rat.of_int c.frames) in
      Some
        (run_both_monitored ~spec
           ~exec:(fun () ->
             Exec_time.uniform ~seed:(c.seed + 1) ~min_fraction:c.min_fraction)
           ~platform:(Platform.create ~overhead ~n_procs:c.n_procs ())
           ~frames:c.frames
           ~sporadic:
             (Randgen.random_traces ~seed:(c.seed + 7) ~horizon ~density:0.5
                net)
           net derived sched))

let prop_monitor_differential =
  qtest ~name:"run ~monitor = run_reference ~monitor, on the tick core"
    ~count:800
    mc_case_gen
    (fun c ->
      match run_mc_case c with
      | None -> true
      | Some (tick, reference) ->
        if not (same_monitored tick reference) then
          QCheck2.Test.fail_reportf "mismatch: %s" (mc_case_print c)
        else true)

(* At 106 ms, frame 1's switch instant, a processor above processor 0
   degrades the frame in the last sweep of an instant queued twice;
   processor 0 drops its LO jobs at once only through the tick core's
   extra sweep, and at its next wake-up, 108.057 ms, without it. *)
let test_drop_in_the_extra_sweep () =
  match
    run_mc_case
      {
        seed = 27741; family = 2; size = 3; n_sporadic = 0; n_procs = 3;
        frames = 2; hi_mask = 0; hi_factor = 3; min_fraction = 0.;
        overhead = 2;
      }
  with
  | None -> Alcotest.fail "no schedule"
  | Some (((r, switches, _) as tick), reference) ->
    Alcotest.(check bool) "equals the reference" true
      (same_monitored tick reference);
    let logger =
      List.find
        (fun (x : Exec_trace.record) -> x.label = "Logger1[1]" && x.frame = 1)
        (Engine.trace r)
    in
    Alcotest.(check bool) "dropped at the switch instant" true
      (logger.skipped && Rat.equal logger.start (ms 106)
      && Rat.equal (List.assoc 1 switches) (ms 106))

(* C_LO budgets over large coprime denominators: no tick grid holds
   them over the three frames, so the monitored run is refused, with
   the reason, before any job runs.  The schedule comes from
   [mc_spec]'s integer budgets. *)
let test_refuse_budgets_off_grid () =
  let net = mc_net () in
  let spec =
    Spec.of_list ~default_criticality:Spec.Lo
      ~wcet_lo:
        (Derive.wcet_of_list (ms 30)
           [
             ("Sensor", Rat.make 300_000_046 20_000_003);
             ("Control", Rat.make 400_000_461 20_000_023);
           ])
      ~hi:[ ("Sensor", ms 40); ("Control", ms 55) ]
  in
  let derived = Derive.derive_exn ~wcet:(Spec.wcet_lo (mc_spec ())) net in
  let sched =
    match snd (Sched.List_scheduler.auto ~n_procs:2 derived.Derive.graph) with
    | Some a -> a.Sched.List_scheduler.schedule
    | None -> Alcotest.fail "unschedulable"
  in
  match
    run_both_monitored ~spec
      ~exec:(fun () -> Exec_time.profile (Spec.wcet_hi spec))
      ~platform:(Platform.create ~n_procs:2 ())
      ~frames:3 ~sporadic:[] net derived sched
  with
  | _ -> Alcotest.fail "the run was not refused"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "the reason"
      "Engine.run: no tick grid holds the run: 3 frames of the hyperperiod \
       100 exceed 2^55 ticks of 1/400000520000069"
      msg

let () =
  Alcotest.run "mixedcrit"
    [
      ( "graph-restriction",
        [
          Alcotest.test_case "paths preserved" `Quick test_induced_preserves_paths;
          Alcotest.test_case "map_wcet" `Quick test_map_wcet;
        ] );
      ( "spec",
        [
          Alcotest.test_case "accessors" `Quick test_spec_accessors;
          Alcotest.test_case "inverted budgets" `Quick test_spec_rejects_inverted_budgets;
        ] );
      ( "dual-schedule",
        [
          Alcotest.test_case "build" `Quick test_dual_schedule_build;
          Alcotest.test_case "infeasible" `Quick test_dual_schedule_infeasible;
          Alcotest.test_case "inverted budgets" `Quick
            test_dual_schedule_inverted_budgets;
        ] );
      ( "engine",
        [
          Alcotest.test_case "no overrun" `Quick test_no_overrun_stays_in_lo;
          Alcotest.test_case "overrun degrades" `Quick test_overrun_degrades_and_protects_hi;
          Alcotest.test_case "switch instant" `Quick test_switch_instant_is_the_budget_expiry;
          Alcotest.test_case "partial overruns" `Quick test_partial_overrun_pattern;
          Alcotest.test_case "all-LO equals plain engine" `Quick
            test_all_lo_equals_plain_engine;
          Alcotest.test_case "all-LO through sporadic servers" `Quick
            test_all_lo_sporadic_servers;
          Alcotest.test_case "foreign sporadic names rejected" `Quick
            test_rejects_foreign_sporadic_names;
          Alcotest.test_case "drop before the invocation" `Quick
            test_drop_before_invocation;
          Alcotest.test_case "drop at the next wakeup" `Quick
            test_drop_at_the_next_wakeup;
          prop_monitor_invariants;
          prop_monitor_differential;
          Alcotest.test_case "drop in the extra sweep" `Quick
            test_drop_in_the_extra_sweep;
          Alcotest.test_case "C_LO budgets on no tick grid are refused" `Quick
            test_refuse_budgets_off_grid;
        ] );
    ]

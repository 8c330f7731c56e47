(* Component-level tests that close gaps left by the suite-per-module
   files: netstate routing, instances, execution-time models, platform
   validation, engine error paths — plus the paper's Sec. II semantic
   foundation as a property: functional priorities are equivalent to
   uniprocessor fixed priorities under zero execution times. *)

module Rat = Rt_util.Rat
module V = Fppn.Value
module Event = Fppn.Event
module Process = Fppn.Process
module Network = Fppn.Network
module Netstate = Fppn.Netstate
module Instance = Fppn.Instance
module Semantics = Fppn.Semantics
module Derive = Taskgraph.Derive
module Job = Taskgraph.Job
module Engine = Runtime.Engine
module Exec_time = Runtime.Exec_time
module Platform = Runtime.Platform
module Preemptive = Runtime.Preemptive

let ms = Rat.of_int
let value = Alcotest.testable V.pp V.equal

let qprop name ?(count = 50) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- netstate -------------------------------------------------------------- *)

let wr_net () =
  let b = Network.Builder.create "wr" in
  Network.Builder.add_process b
    (Process.make ~name:"W"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native (fun ctx -> ctx.Process.write "c" (V.Int ctx.Process.job_index))));
  Network.Builder.add_process b
    (Process.make ~name:"R"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native (fun ctx -> ctx.Process.write "o" (ctx.Process.read "c"))));
  Network.Builder.add_channel b ~kind:Fppn.Channel.Fifo ~writer:"W" ~reader:"R" "c";
  Network.Builder.add_priority b "W" "R";
  Network.Builder.add_output b ~owner:"R" "o";
  Network.Builder.finish_exn b

let test_netstate_routing_errors () =
  let b = Network.Builder.create "bad" in
  Network.Builder.add_process b
    (Process.make ~name:"P"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native (fun ctx -> ignore (ctx.Process.read "nonexistent"))));
  let net = Network.Builder.finish_exn b in
  let st = Netstate.create net in
  Alcotest.(check bool) "read of unattached channel rejected" true
    (try
       Netstate.run_job st ~proc:0 ~now:Rat.zero;
       false
     with Invalid_argument _ -> true);
  (* a reader may not write its input channel *)
  let b2 = Network.Builder.create "bad2" in
  Network.Builder.add_process b2
    (Process.make ~name:"W"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native (fun _ -> ())));
  Network.Builder.add_process b2
    (Process.make ~name:"R"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native (fun ctx -> ctx.Process.write "c" (V.Int 1))));
  Network.Builder.add_channel b2 ~kind:Fppn.Channel.Fifo ~writer:"W" ~reader:"R" "c";
  Network.Builder.add_priority b2 "W" "R";
  let net2 = Network.Builder.finish_exn b2 in
  let st2 = Netstate.create net2 in
  Alcotest.(check bool) "reader writing its input rejected" true
    (try
       Netstate.run_job st2 ~proc:(Network.find net2 "R") ~now:Rat.zero;
       false
     with Invalid_argument _ -> true)

let test_netstate_deferred_writes () =
  let net = wr_net () in
  let st = Netstate.create net in
  let w = Network.find net "W" in
  let flush = Netstate.run_job_deferred st ~proc:w ~now:Rat.zero in
  (* before the flush the channel is still empty *)
  Alcotest.check value "not yet published" V.Absent
    (Fppn.Channel.peek (Netstate.channel_state st "c"));
  flush ();
  Alcotest.check value "published after flush" (V.Int 1)
    (Fppn.Channel.peek (Netstate.channel_state st "c"));
  Alcotest.(check (list value)) "history updated" [ V.Int 1 ]
    (List.assoc "c" (Netstate.channel_history st))

let test_netstate_reset () =
  let net = wr_net () in
  let st = Netstate.create net in
  Netstate.run_job st ~proc:(Network.find net "W") ~now:Rat.zero;
  Netstate.run_job st ~proc:(Network.find net "R") ~now:Rat.zero;
  Alcotest.(check int) "W ran once" 1
    (Instance.job_count (Netstate.instance st (Network.find net "W")));
  Netstate.reset st;
  Alcotest.(check int) "counters reset" 0
    (Instance.job_count (Netstate.instance st (Network.find net "W")));
  Alcotest.(check (list value)) "histories cleared" []
    (List.assoc "c" (Netstate.channel_history st))

let test_instance_skip_and_locals () =
  let proc =
    Process.make
      ~locals:[ ("acc", V.Int 0) ]
      ~name:"Acc"
      ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
      (Process.Native
         (fun ctx ->
           ctx.Process.set "acc"
             (V.Int (V.to_int (ctx.Process.get "acc") + ctx.Process.job_index))))
  in
  let inst = Instance.create proc in
  let nop_read _ = V.Absent and nop_write _ _ = () in
  Instance.run_job inst ~now:Rat.zero ~read:nop_read ~write:nop_write;
  Instance.run_job inst ~now:Rat.zero ~read:nop_read ~write:nop_write;
  Alcotest.(check int) "counter counts the jobs" 2 (Instance.job_count inst);
  (* acc = 1 (k=1) + 2 (k=2) *)
  Alcotest.check value "locals persist across jobs" (V.Int 3) (Instance.get inst "acc");
  Instance.reset inst;
  Alcotest.check value "reset restores initial locals" (V.Int 0)
    (Instance.get inst "acc");
  Alcotest.(check bool) "unknown local" true
    (try
       ignore (Instance.get inst "ghost");
       false
     with Not_found -> true)

(* --- execution-time models -------------------------------------------------- *)

let job_with_wcet c =
  {
    Job.id = 0;
    proc = 0;
    proc_name = "P";
    k = 1;
    arrival = Rat.zero;
    deadline = ms 100;
    wcet = c;
    is_server = false;
  }

let test_exec_time_models () =
  let j = job_with_wcet (ms 40) in
  Alcotest.(check bool) "constant = wcet" true
    (Rat.equal (Exec_time.sample Exec_time.constant j) (ms 40));
  Alcotest.(check bool) "scaled 0.5" true
    (Rat.equal (Exec_time.sample (Exec_time.scaled 0.5) j) (ms 20));
  Alcotest.(check bool) "scaled beyond 1 models underestimation" true
    Rat.(Exec_time.sample (Exec_time.scaled 1.5) j > ms 40);
  let p = Exec_time.profile (fun name -> if name = "P" then ms 7 else ms 1) in
  Alcotest.(check bool) "profile by name" true (Rat.equal (Exec_time.sample p j) (ms 7));
  let u = Exec_time.uniform ~seed:5 ~min_fraction:0.25 in
  for _ = 1 to 200 do
    let d = Exec_time.sample u j in
    Alcotest.(check bool) "uniform within [0.25C, C]" true
      Rat.(d >= ms 10) ;
    Alcotest.(check bool) "uniform <= C" true Rat.(d <= ms 40)
  done;
  Alcotest.(check bool) "bad fraction rejected" true
    (try
       ignore (Exec_time.uniform ~seed:1 ~min_fraction:1.5);
       false
     with Invalid_argument _ -> true)

let test_exec_time_uniform_deterministic () =
  let j = job_with_wcet (ms 40) in
  let sample_seq seed =
    let u = Exec_time.uniform ~seed ~min_fraction:0.2 in
    List.init 20 (fun _ -> Exec_time.sample u j)
  in
  Alcotest.(check bool) "same seed, same durations" true
    (List.equal Rat.equal (sample_seq 7) (sample_seq 7));
  Alcotest.(check bool) "different seeds differ" true
    (not (List.equal Rat.equal (sample_seq 7) (sample_seq 8)))

let test_platform_validation () =
  Alcotest.(check bool) "zero processors rejected" true
    (try
       ignore (Platform.create ~n_procs:0 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative overhead rejected" true
    (try
       ignore
         (Platform.create
            ~overhead:
              { Platform.first_frame = Rat.neg Rat.one;
                steady_frame = Rat.zero;
                per_access = Rat.zero }
            ~n_procs:1 ());
       false
     with Invalid_argument _ -> true);
  let p = Platform.create ~overhead:Platform.mppa_like ~n_procs:2 () in
  Alcotest.(check bool) "first frame 41" true
    (Rat.equal (Platform.frame_overhead p ~frame:0) (ms 41));
  Alcotest.(check bool) "steady 20" true
    (Rat.equal (Platform.frame_overhead p ~frame:3) (ms 20))

(* --- engine error paths ------------------------------------------------------ *)

let test_engine_validation () =
  let net = wr_net () in
  let d = Derive.derive_exn ~wcet:(Derive.const_wcet (ms 10)) net in
  let sched =
    Sched.List_scheduler.schedule_with ~heuristic:Sched.Priority.Alap_edf
      ~n_procs:2 d.Derive.graph
  in
  let expect_invalid f =
    Alcotest.(check bool) "Invalid_argument" true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid (fun () ->
      Engine.run net d sched { (Engine.default_config ~frames:0 ~n_procs:2 ()) with Engine.frames = 0 });
  (* platform/schedule processor mismatch *)
  expect_invalid (fun () ->
      Engine.run net d sched (Engine.default_config ~frames:1 ~n_procs:3 ()));
  (* unknown sporadic name *)
  expect_invalid (fun () ->
      Engine.run net d sched
        { (Engine.default_config ~frames:1 ~n_procs:2 ()) with
          Engine.sporadic = [ ("Ghost", []) ] });
  (* periodic process in the sporadic list *)
  expect_invalid (fun () ->
      Engine.run net d sched
        { (Engine.default_config ~frames:1 ~n_procs:2 ()) with
          Engine.sporadic = [ ("W", []) ] })

(* --- trace compliance checker ----------------------------------------------- *)

let fig1_trace () =
  let net = Fppn_apps.Fig1.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet net in
  let sched =
    match snd (Sched.List_scheduler.auto ~n_procs:2 d.Derive.graph) with
    | Some a -> a.Sched.List_scheduler.schedule
    | None -> Alcotest.fail "infeasible"
  in
  let cfg =
    { (Engine.default_config ~frames:3 ~n_procs:2 ()) with
      Engine.sporadic = [ ("CoefB", [ ms 50 ]) ];
      exec = Exec_time.uniform ~seed:4 ~min_fraction:0.4 }
  in
  (d, Engine.trace (Engine.run net d sched cfg))

let test_trace_check_clean () =
  let d, trace = fig1_trace () in
  Alcotest.(check (list string)) "engine traces are compliant" []
    (List.map
       (Format.asprintf "%a" Runtime.Exec_trace.pp_violation)
       (Runtime.Exec_trace.check d.Derive.graph trace))

let test_trace_check_detects_corruption () =
  let d, trace = fig1_trace () in
  let module ET = Runtime.Exec_trace in
  (* corrupt a record: start before invocation and stretch past WCET *)
  let corrupted_one = ref false in
  let corrupted =
    List.map
      (fun (r : ET.record) ->
        if (not r.ET.skipped) && not !corrupted_one then begin
          corrupted_one := true;
          { r with
            ET.start = Rat.sub r.ET.start (ms 1000);
            finish = Rat.add r.ET.finish (ms 1000) }
        end
        else r)
      trace
  in
  Alcotest.(check bool) "a record was corrupted" true !corrupted_one;
  let vs = ET.check d.Derive.graph corrupted in
  let has p = List.exists p vs in
  Alcotest.(check bool) "wcet violation found" true
    (has (function ET.Wcet_exceeded _ -> true | _ -> false));
  Alcotest.(check bool) "early start found" true
    (has (function ET.Started_before_invocation _ -> true | _ -> false))

let test_gantt_svg () =
  let d, trace = fig1_trace () in
  ignore d;
  let rows = Runtime.Exec_trace.to_gantt_rows trace in
  let svg = Rt_util.Gantt.to_svg ~title:"fig1 run" rows in
  let contains needle =
    let nl = String.length needle and hl = String.length svg in
    let rec scan i = i + nl <= hl && (String.sub svg i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "svg document" true (contains "<svg");
  Alcotest.(check bool) "closes" true (contains "</svg>");
  Alcotest.(check bool) "has bars" true (contains "<rect");
  Alcotest.(check bool) "mentions a job" true (contains "InputA[1]");
  Alcotest.(check bool) "title escaped and present" true (contains "fig1 run");
  (* rendering is a pure function of the rows *)
  Alcotest.(check bool) "svg deterministic" true
    (String.equal (Rt_util.Gantt.to_svg rows) (Rt_util.Gantt.to_svg rows))

(* --- Sec. II foundation: FP = uniprocessor FP with zero exec times ----------- *)

let random_params =
  QCheck2.Gen.(
    let* seed = int_range 0 30_000 in
    let* n_periodic = int_range 2 7 in
    let* n_sporadic = int_range 0 2 in
    return
      { Fppn_apps.Randgen.default_params with
        seed; n_periodic; n_sporadic; channel_density = 0.5 })

let prop_zero_exec_uniproc_equals_zero_delay =
  qprop
    "Sec. II: functional priorities = uniprocessor fixed priorities at zero \
     execution time"
    random_params
    (fun params ->
      let net = Fppn_apps.Randgen.network params in
      let horizon =
        (* a couple of the shortest periods is enough to see interleavings *)
        Rat.mul (Network.hyperperiod net) (Rat.of_int 1)
      in
      let sporadic =
        Fppn_apps.Randgen.random_traces ~seed:params.Fppn_apps.Randgen.seed
          ~horizon ~density:0.5 net
      in
      let zd = Semantics.run net (Semantics.invocations ~sporadic ~horizon net) in
      (* priorities aligned with the functional-priority topological rank *)
      let prio =
        List.map
          (fun p -> (Process.name (Network.process net p), Network.fp_rank net p))
          (List.init (Network.n_processes net) Fun.id)
      in
      let up =
        Preemptive.run net
          { (Preemptive.default_config ~policy:(Fixed (Explicit prio)) ~n_procs:1
               ~wcet:(Derive.const_wcet Rat.one) ~horizon)
            with
            Preemptive.sporadic;
            exec = Exec_time.scaled 0.0 (* zero execution times *) }
      in
      List.equal
        (fun (n1, h1) (n2, h2) -> n1 = n2 && List.equal V.equal h1 h2)
        (Semantics.signature zd)
        (Preemptive.signature up))

let () =
  Alcotest.run "components"
    [
      ( "netstate",
        [
          Alcotest.test_case "routing errors" `Quick test_netstate_routing_errors;
          Alcotest.test_case "deferred writes" `Quick test_netstate_deferred_writes;
          Alcotest.test_case "reset" `Quick test_netstate_reset;
          Alcotest.test_case "instance skip/locals" `Quick test_instance_skip_and_locals;
        ] );
      ( "exec-time",
        [
          Alcotest.test_case "models" `Quick test_exec_time_models;
          Alcotest.test_case "deterministic jitter" `Quick
            test_exec_time_uniform_deterministic;
          Alcotest.test_case "platform validation" `Quick test_platform_validation;
        ] );
      ( "engine-validation",
        [ Alcotest.test_case "config errors" `Quick test_engine_validation ] );
      ( "trace-check",
        [
          Alcotest.test_case "clean trace" `Quick test_trace_check_clean;
          Alcotest.test_case "detects corruption" `Quick test_trace_check_detects_corruption;
          Alcotest.test_case "svg export" `Quick test_gantt_svg;
        ] );
      ( "sec2-foundation",
        [ prop_zero_exec_uniproc_equals_zero_delay ] );
    ]

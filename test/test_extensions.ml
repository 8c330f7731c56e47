(* Tests for the extension layers: FIFO buffer analysis, the global-EDF
   nondeterminism baseline, processor dimensioning, trace export and
   per-process statistics. *)

module Rat = Rt_util.Rat
module V = Fppn.Value
module Event = Fppn.Event
module Process = Fppn.Process
module Network = Fppn.Network
module Buffer_analysis = Fppn.Buffer_analysis
module Derive = Taskgraph.Derive
module Graph = Taskgraph.Graph
module Dimension = Sched.Dimension
module List_scheduler = Sched.List_scheduler
module Engine = Runtime.Engine
module Exec_time = Runtime.Exec_time
module Exec_trace = Runtime.Exec_trace
module Preemptive = Runtime.Preemptive
module Export = Runtime.Export

let ms = Rat.of_int

(* --- buffer analysis ---------------------------------------------------- *)

(* writer at 100 ms vs reader at 200 ms who only consumes one sample per
   job: FIFO drifts by +1 per hyperperiod *)
let unbalanced_net () =
  let b = Network.Builder.create "unbalanced" in
  Network.Builder.add_process b
    (Process.make ~name:"W"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native
          (fun ctx -> ctx.Process.write "q" (V.Int ctx.Process.job_index))));
  Network.Builder.add_process b
    (Process.make ~name:"R"
       ~event:(Event.periodic ~period:(ms 200) ~deadline:(ms 200) ())
       (Process.Native (fun ctx -> ignore (ctx.Process.read "q"))));
  Network.Builder.add_channel b ~kind:Fppn.Channel.Fifo ~writer:"W" ~reader:"R" "q";
  Network.Builder.add_priority b "W" "R";
  Network.Builder.finish_exn b

let test_buffer_unbounded_detection () =
  let report = Buffer_analysis.analyse ~hyperperiods:5 (unbalanced_net ()) in
  match Buffer_analysis.unbounded_channels report with
  | [ r ] ->
    Alcotest.(check string) "channel q flagged" "q" r.Buffer_analysis.channel;
    Alcotest.(check (float 0.01)) "drift +1 per hyperperiod" 1.0
      r.Buffer_analysis.drift;
    Alcotest.(check bool) "peak grows with the horizon" true
      (r.Buffer_analysis.max_occupancy >= 5)
  | l -> Alcotest.failf "expected 1 unbounded channel, got %d" (List.length l)

let test_buffer_balanced_fig1 () =
  let report =
    Buffer_analysis.analyse ~hyperperiods:6
      ~sporadic:[ ("CoefB", [ ms 50 ]) ]
      ~inputs:(Fppn_apps.Fig1.input_feed ~samples:64)
      (Fppn_apps.Fig1.network ())
  in
  Alcotest.(check (list string)) "no unbounded channels in fig1" []
    (List.map
       (fun r -> r.Buffer_analysis.channel)
       (Buffer_analysis.unbounded_channels report));
  (* the InputA->FilterA FIFO holds at most one element *)
  Alcotest.(check (option int)) "inA_to_fA bound" (Some 1)
    (Buffer_analysis.bound_of report Fppn_apps.Fig1.ch_input_to_filter_a);
  (* all seven channels are reported *)
  Alcotest.(check int) "7 channels" 7 (List.length report.Buffer_analysis.channels)

let test_buffer_fft_single_slot () =
  let p = Fppn_apps.Fft.default_params in
  let report = Buffer_analysis.analyse ~hyperperiods:3 (Fppn_apps.Fft.network p) in
  (* every stage FIFO carries exactly one token per frame *)
  List.iter
    (fun r ->
      Alcotest.(check int)
        (r.Buffer_analysis.channel ^ " single-token bound")
        1 r.Buffer_analysis.max_occupancy)
    report.Buffer_analysis.channels;
  Alcotest.(check int) "fft channel count (2 per butterfly + n outputs)"
    (8 + (12 * 2))
    (List.length report.Buffer_analysis.channels)

let test_buffer_default_sporadic_is_max_rate () =
  (* with the default synthetic traces, CoefB writes 2 per 200 ms server
     window... i.e. at its own min period: 2 writes per 700 ms *)
  let report = Buffer_analysis.analyse ~hyperperiods:7 (Fppn_apps.Fig1.network ()) in
  let coef =
    List.find
      (fun r -> r.Buffer_analysis.channel = Fppn_apps.Fig1.ch_coef_to_filter_b)
      report.Buffer_analysis.channels
  in
  Alcotest.(check bool) "coef blackboard written" true
    (coef.Buffer_analysis.writes_per_hyperperiod > 0.0);
  Alcotest.(check int) "blackboard occupancy capped at 1" 1
    coef.Buffer_analysis.max_occupancy

(* --- global EDF nondeterminism ------------------------------------------ *)

let eq_sig a b =
  List.equal
    (fun (n1, h1) (n2, h2) -> String.equal n1 n2 && List.equal V.equal h1 h2)
    a b

let test_global_edf_runs () =
  let net = Fppn_apps.Fig1.network () in
  let cfg =
    Preemptive.default_config ~policy:Edf ~n_procs:2 ~wcet:Fppn_apps.Fig1.wcet
      ~horizon:(ms 600)
  in
  let r = Preemptive.run net cfg in
  Alcotest.(check bool) "jobs executed" true (List.length r.Preemptive.records > 10);
  (* plenty of capacity on 2 procs: all deadlines met *)
  Alcotest.(check int) "no misses on 2 procs" 0 r.Preemptive.misses

let test_global_edf_is_not_deterministic () =
  (* the motivating experiment: under multiprocessor EDF the channel
     histories depend on execution times; under the FPPN runtime they do
     not.  Fig. 1's FilterA/NormA feedback is timing-sensitive: if
     NormA[k] completes before FilterA[k+1] starts, the gain applies one
     period earlier. *)
  let net = Fppn_apps.Fig1.network () in
  let run seed =
    let cfg =
      { (Preemptive.default_config ~policy:Edf ~n_procs:2
           ~wcet:Fppn_apps.Fig1.wcet ~horizon:(ms 1000))
        with
        Preemptive.exec = Exec_time.uniform ~seed ~min_fraction:0.05;
        inputs = Fppn_apps.Fig1.input_feed ~samples:64 }
    in
    Preemptive.signature (Preemptive.run net cfg)
  in
  let signatures = List.map run [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let all_equal =
    match signatures with
    | first :: rest -> List.for_all (eq_sig first) rest
    | [] -> true
  in
  Alcotest.(check bool) "global EDF histories vary across jitter seeds" false
    all_equal

let test_fppn_runtime_is_deterministic_same_setup () =
  (* the same workload through the FPPN flow: identical histories *)
  let net = Fppn_apps.Fig1.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet net in
  let sched =
    match snd (List_scheduler.auto ~n_procs:2 d.Derive.graph) with
    | Some a -> a.List_scheduler.schedule
    | None -> Alcotest.fail "infeasible"
  in
  let run seed =
    let cfg =
      { (Engine.default_config ~frames:5 ~n_procs:2 ()) with
        Engine.inputs = Fppn_apps.Fig1.input_feed ~samples:64;
        exec = Exec_time.uniform ~seed ~min_fraction:0.05 }
    in
    Engine.signature (Engine.run net d sched cfg)
  in
  let signatures = List.map run [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  match signatures with
  | first :: rest ->
    Alcotest.(check bool) "FPPN histories identical across jitter seeds" true
      (List.for_all (eq_sig first) rest)
  | [] -> ()

let test_global_edf_preemptions () =
  (* C and A take both processors at 0 (earliest deadlines, then release
     order); B starts when C[1] completes at 10 and loses its processor
     to C[2] at 100 and to C[3] at 200.  At 300, A completes at the
     instant C[4] is released, so C[4] takes A's processor and B keeps
     its own. *)
  let b = Network.Builder.create "edf-preempt" in
  List.iter
    (fun (name, period) ->
      Network.Builder.add_process b
        (Process.make ~name
           ~event:(Event.periodic ~period:(ms period) ~deadline:(ms period) ())
           (Process.Native (fun _ -> ()))))
    [ ("A", 1000); ("B", 1000); ("C", 100) ];
  let net = Network.Builder.finish_exn b in
  let wcet =
    Derive.wcet_of_list (ms 0) [ ("A", ms 300); ("B", ms 300); ("C", ms 10) ]
  in
  let r =
    Preemptive.run net
      (Preemptive.default_config ~policy:Edf ~n_procs:2 ~wcet ~horizon:(ms 1000))
  in
  let span name =
    let x =
      List.find (fun (x : Preemptive.record) -> x.process = name && x.k = 1) r.records
    in
    Rat.to_string x.started ^ "-" ^ Rat.to_string x.finished
  in
  Alcotest.(check string) "A[1] runs uninterrupted" "0-300" (span "A");
  Alcotest.(check string) "B[1] runs 10-100, 110-200, 210-330" "10-330" (span "B");
  Alcotest.(check (list (pair string int))) "preempted jobs" [ ("B", 2) ]
    (List.filter_map
       (fun (x : Preemptive.record) ->
         if x.preemptions > 0 then Some (x.process, x.preemptions) else None)
       r.records);
  Alcotest.(check int) "no misses" 0 r.misses

(* --- processor dimensioning ----------------------------------------------- *)

let test_dimension_fft () =
  let p = Fppn_apps.Fft.default_params in
  let net = Fppn_apps.Fft.network_with_overhead_job p in
  let d =
    Derive.derive_exn ~wcet:(Fppn_apps.Fft.wcet_map_with_overhead p ~overhead:(ms 41)) net
  in
  let v = Dimension.min_processors d.Derive.graph in
  Alcotest.(check int) "lower bound 2 (load ~1.2)" 2 v.Dimension.lower_bound;
  match v.Dimension.found with
  | Some (m, _) -> Alcotest.(check int) "2 processors suffice" 2 m
  | None -> Alcotest.fail "expected a feasible processor count"

let test_dimension_infeasible_job () =
  let job =
    {
      Taskgraph.Job.id = 0;
      proc = 0;
      proc_name = "X";
      k = 1;
      arrival = ms 0;
      deadline = ms 50;
      wcet = ms 80;
      is_server = false;
    }
  in
  let g = Graph.make [| job |] (Rt_util.Digraph.create 1) in
  let v = Dimension.min_processors g in
  Alcotest.(check int) "job-infeasible lower bound" max_int v.Dimension.lower_bound;
  Alcotest.(check bool) "nothing found" true (v.Dimension.found = None)

let test_dimension_fms () =
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet (Fppn_apps.Fms.reduced ()) in
  let v = Dimension.min_processors d.Derive.graph in
  Alcotest.(check int) "FMS needs one processor" 1 v.Dimension.lower_bound;
  match v.Dimension.found with
  | Some (1, _) -> ()
  | _ -> Alcotest.fail "expected M=1 feasible"

(* --- end-to-end latency ------------------------------------------------- *)

let fig1_run ?(frames = 3) ?(seed = 5) () =
  let net = Fppn_apps.Fig1.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet net in
  let sched =
    match snd (List_scheduler.auto ~n_procs:2 d.Derive.graph) with
    | Some a -> a.List_scheduler.schedule
    | None -> Alcotest.fail "infeasible"
  in
  let cfg =
    { (Engine.default_config ~frames ~n_procs:2 ()) with
      Engine.sporadic = [ ("CoefB", [ ms 50 ]) ];
      exec = Exec_time.uniform ~seed ~min_fraction:0.3 }
  in
  (d, Engine.run net d sched cfg)

let test_latency_fig1 () =
  let d, r = fig1_run () in
  let l =
    Runtime.Latency.analyse d.Derive.graph ~source:"InputA" ~sink:"OutputA"
      (Engine.trace r)
  in
  (* one OutputA job per frame, each fed by the frame's InputA job *)
  Alcotest.(check int) "one sample per frame" 3
    (List.length l.Runtime.Latency.samples);
  Alcotest.(check bool) "reaction positive" true
    (Rat.sign l.Runtime.Latency.max_reaction > 0);
  (* reaction <= age always *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "reaction <= age" true
        Rat.(s.Runtime.Latency.reaction <= s.Runtime.Latency.age))
    l.Runtime.Latency.samples;
  (* within a frame the whole chain fits in the 200 ms hyperperiod *)
  Alcotest.(check bool) "bounded by the frame" true
    Rat.(l.Runtime.Latency.max_reaction <= ms 200)

let test_latency_requires_a_path () =
  let d, r = fig1_run () in
  (* OutputA and OutputB are unrelated: no end-to-end constraint *)
  Alcotest.(check bool) "no path -> Invalid_argument" true
    (try
       ignore
         (Runtime.Latency.analyse d.Derive.graph ~source:"OutputA"
            ~sink:"OutputB" (Engine.trace r));
       false
     with Invalid_argument _ -> true)

let test_latency_deterministic_upper_bound () =
  (* under WCET execution, the reaction time equals the static bound
     finish(sink) - arrival(source); jittered runs can only be faster *)
  let d, wcet_run = fig1_run ~seed:0 () in
  ignore wcet_run;
  let net = Fppn_apps.Fig1.network () in
  let sched =
    match snd (List_scheduler.auto ~n_procs:2 d.Derive.graph) with
    | Some a -> a.List_scheduler.schedule
    | None -> Alcotest.fail "infeasible"
  in
  let run exec =
    let cfg =
      { (Engine.default_config ~frames:2 ~n_procs:2 ()) with Engine.exec } in
    let r = Engine.run net d sched cfg in
    (Runtime.Latency.analyse d.Derive.graph ~source:"InputA" ~sink:"OutputA"
       (Engine.trace r))
      .Runtime.Latency.max_reaction
  in
  let bound = run Exec_time.constant in
  List.iter
    (fun seed ->
      let jittered = run (Exec_time.uniform ~seed ~min_fraction:0.2) in
      Alcotest.(check bool)
        (Printf.sprintf "jittered latency (seed %d) within the WCET bound" seed)
        true
        Rat.(jittered <= bound))
    [ 1; 2; 3 ]

let test_latency_fms_chain () =
  let net = Fppn_apps.Fms.reduced () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet net in
  let sched =
    match snd (List_scheduler.auto ~n_procs:1 d.Derive.graph) with
    | Some a -> a.List_scheduler.schedule
    | None -> Alcotest.fail "infeasible"
  in
  let r = Engine.run net d sched (Engine.default_config ~frames:1 ~n_procs:1 ()) in
  let l =
    Runtime.Latency.analyse d.Derive.graph ~source:"SensorInput"
      ~sink:"Performance" (Engine.trace r)
  in
  Alcotest.(check int) "10 Performance jobs in the 10 s frame" 10
    (List.length l.Runtime.Latency.samples);
  Alcotest.(check bool) "sensor-to-performance reaction bounded" true
    (Rat.sign l.Runtime.Latency.max_reaction > 0)

(* --- schedule persistence -------------------------------------------------- *)

let test_schedule_roundtrip () =
  let net = Fppn_apps.Fig1.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet net in
  let g = d.Derive.graph in
  let sched =
    match snd (List_scheduler.auto ~n_procs:2 g) with
    | Some a -> a.List_scheduler.schedule
    | None -> Alcotest.fail "infeasible"
  in
  let text = Sched.Schedule_io.to_string ~graph:g sched in
  match Sched.Schedule_io.of_string text with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok sched' ->
    Alcotest.(check int) "procs" (Sched.Static_schedule.n_procs sched)
      (Sched.Static_schedule.n_procs sched');
    Alcotest.(check bool) "matches the graph" true (Sched.Schedule_io.matches g sched');
    for i = 0 to Sched.Static_schedule.n_jobs sched - 1 do
      Alcotest.(check int) "proc" (Sched.Static_schedule.proc sched i)
        (Sched.Static_schedule.proc sched' i);
      Alcotest.(check bool) "start" true
        (Rat.equal
           (Sched.Static_schedule.start sched i)
           (Sched.Static_schedule.start sched' i))
    done;
    (* a loaded schedule drives the engine identically *)
    let cfg = Engine.default_config ~frames:2 ~n_procs:2 () in
    let r1 = Engine.run net d sched cfg
    and r2 = Engine.run net d sched' cfg in
    Alcotest.(check bool) "same histories through a reloaded schedule" true
      (eq_sig (Engine.signature r1) (Engine.signature r2))

let test_schedule_parse_errors () =
  let expect_error text =
    match Sched.Schedule_io.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected a parse error on %S" text
  in
  expect_error "not a schedule";
  expect_error "fppn-schedule v1
procs 2
jobs 2
0 0 0";
  expect_error "fppn-schedule v1
procs 2
jobs 1
0 9 0";
  expect_error "fppn-schedule v1
procs x
jobs 1
0 0 0";
  expect_error "fppn-schedule v1
procs 1
jobs 2
0 0 0
0 0 5"

let qprop name ?(count = 40) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let prop_schedule_io_roundtrip_random =
  qprop "schedule save/load round-trips on random workloads"
    QCheck2.Gen.(
      triple (int_range 0 20_000) (int_range 2 7) (int_range 1 3))
    (fun (seed, n_periodic, n_procs) ->
      let params =
        { Fppn_apps.Randgen.default_params with seed; n_periodic; n_sporadic = 1 }
      in
      let net = Fppn_apps.Randgen.network params in
      let wcet =
        Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 12)
          (Derive.const_wcet Rat.one) net
      in
      let d = Derive.derive_exn ~wcet net in
      let s =
        Sched.List_scheduler.schedule_with ~heuristic:Sched.Priority.Alap_edf
          ~n_procs d.Derive.graph
      in
      match Sched.Schedule_io.of_string (Sched.Schedule_io.to_string ~graph:d.Derive.graph s) with
      | Error _ -> false
      | Ok s' ->
        Sched.Static_schedule.n_procs s = Sched.Static_schedule.n_procs s'
        && List.for_all
             (fun i ->
               Sched.Static_schedule.proc s i = Sched.Static_schedule.proc s' i
               && Rat.equal (Sched.Static_schedule.start s i)
                    (Sched.Static_schedule.start s' i))
             (List.init (Sched.Static_schedule.n_jobs s) Fun.id))

let test_schedule_file_roundtrip () =
  let net = Fppn_apps.Fig1.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet net in
  let sched =
    match snd (List_scheduler.auto ~n_procs:2 d.Derive.graph) with
    | Some a -> a.List_scheduler.schedule
    | None -> Alcotest.fail "infeasible"
  in
  let path = Filename.temp_file "fppn-sched" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sched.Schedule_io.save ~graph:d.Derive.graph path sched;
      match Sched.Schedule_io.load path with
      | Ok s ->
        Alcotest.(check int) "jobs" (Sched.Static_schedule.n_jobs sched)
          (Sched.Static_schedule.n_jobs s)
      | Error e -> Alcotest.failf "load failed: %s" e)

(* --- end-to-end verification checker ----------------------------------------- *)

let test_checker_passes_on_good_apps () =
  let config =
    { Fppn_verify.Checker.default_config with
      Fppn_verify.Checker.processor_counts = [ 1; 2 ];
      jitter_seeds = [ 1 ];
      frames = 2 }
  in
  List.iter
    (fun (name, net, wcet) ->
      let report = Fppn_verify.Checker.run ~config ~wcet net in
      if not report.Fppn_verify.Checker.passed then
        Alcotest.failf "%s failed:\n%s" name
          (Format.asprintf "%a" Fppn_verify.Checker.pp report))
    [
      ("fig1", Fppn_apps.Fig1.network (), Fppn_apps.Fig1.wcet);
      ("automotive", Fppn_apps.Automotive.network (), Fppn_apps.Automotive.wcet);
    ]

let test_checker_flags_unbounded_buffers () =
  let report =
    Fppn_verify.Checker.run
      ~config:
        { Fppn_verify.Checker.default_config with
          Fppn_verify.Checker.processor_counts = [ 1 ];
          jitter_seeds = [ 1 ];
          frames = 2 }
      ~wcet:(Derive.const_wcet (ms 5))
      (unbalanced_net ())
  in
  Alcotest.(check bool) "report fails" false report.Fppn_verify.Checker.passed;
  Alcotest.(check bool) "buffer check is the failure" true
    (List.exists
       (fun (c : Fppn_verify.Checker.check) ->
         (not c.Fppn_verify.Checker.passed)
         && c.Fppn_verify.Checker.name = "FIFO buffer bounds")
       report.Fppn_verify.Checker.checks)

let test_broken_fp_dag_rejected_with_diagnostic () =
  (* Def. 2.1: every channel pair must be FP-related.  A network whose
     FP DAG does not cover a channel cannot even be constructed, and the
     diagnostic must name the channel and both endpoints so the user can
     add the missing priority edge. *)
  let b = Network.Builder.create "broken-fp" in
  let periodic name =
    Process.make ~name
      ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
      (Process.Native (fun _ -> ()))
  in
  Network.Builder.add_process b (periodic "W");
  Network.Builder.add_process b (periodic "R");
  Network.Builder.add_process b (periodic "X");
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"W"
    ~reader:"R" "cfg";
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"R"
    ~reader:"X" "out";
  (* only R -> X is priority-covered; W -> R is left unrelated *)
  Network.Builder.add_priority b "R" "X";
  (match Network.Builder.finish b with
  | Ok _ -> Alcotest.fail "broken FP DAG was accepted"
  | Error errs ->
    Alcotest.(check int) "exactly one error" 1 (List.length errs);
    (match errs with
    | [ Network.Missing_priority { channel; writer; reader } ] ->
      Alcotest.(check string) "names the channel" "cfg" channel;
      Alcotest.(check string) "names the writer" "W" writer;
      Alcotest.(check string) "names the reader" "R" reader
    | _ -> Alcotest.fail "expected Missing_priority");
    let msg = Format.asprintf "%a" Network.pp_error (List.hd errs) in
    let contains needle =
      let nl = String.length needle and ml = String.length msg in
      let rec at i = i + nl <= ml && (String.sub msg i nl = needle || at (i + 1)) in
      at 0
    in
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "diagnostic mentions %s" needle)
          true (contains needle))
      [ "\"cfg\""; "\"W\""; "\"R\"" ]);
  (* adding the missing edge fixes it *)
  Network.Builder.add_priority b "W" "R";
  match Network.Builder.finish b with
  | Ok _ -> ()
  | Error errs ->
    Alcotest.failf "still rejected: %s"
      (String.concat "; "
         (List.map (Format.asprintf "%a" Network.pp_error) errs))

let test_checker_reports_subclass_errors () =
  (* sporadic process without a user *)
  let b = Network.Builder.create "nouser" in
  Network.Builder.add_process b
    (Process.make ~name:"P"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native (fun _ -> ())));
  Network.Builder.add_process b
    (Process.make ~name:"S"
       ~event:(Event.sporadic ~min_period:(ms 100) ~deadline:(ms 200) ())
       (Process.Native (fun _ -> ())));
  let net = Network.Builder.finish_exn b in
  let report =
    Fppn_verify.Checker.run ~wcet:(Derive.const_wcet (ms 1)) net
  in
  Alcotest.(check bool) "fails" false report.Fppn_verify.Checker.passed;
  match report.Fppn_verify.Checker.checks with
  | [ c ] ->
    Alcotest.(check bool) "derivation check failed" false
      c.Fppn_verify.Checker.passed
  | _ -> Alcotest.fail "expected a single derivation check"

(* --- export and per-process stats ------------------------------------------ *)

let sample_trace () =
  let net = Fppn_apps.Fig1.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet net in
  let sched =
    match snd (List_scheduler.auto ~n_procs:2 d.Derive.graph) with
    | Some a -> a.List_scheduler.schedule
    | None -> Alcotest.fail "infeasible"
  in
  let cfg =
    { (Engine.default_config ~frames:2 ~n_procs:2 ()) with
      Engine.sporadic = [ ("CoefB", [ ms 50 ]) ] }
  in
  Engine.trace (Engine.run net d sched cfg)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let test_export_json () =
  let trace = sample_trace () in
  let json = Export.to_json trace in
  Alcotest.(check bool) "is an array" true (json.[0] = '[');
  Alcotest.(check bool) "mentions a job label" true
    (contains ~needle:"\"InputA[1]\"" json);
  Alcotest.(check bool) "skipped flag present" true
    (contains ~needle:"\"skipped\":true" json);
  (* one object per record *)
  let objects =
    List.length
      (String.split_on_char '{' json)
    - 1
  in
  Alcotest.(check int) "record count" (List.length trace) objects

let test_export_csv () =
  let trace = sample_trace () in
  let csv = Export.to_csv trace in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one line per record"
    (List.length trace + 1)
    (List.length lines);
  Alcotest.(check string) "header" Export.csv_header (List.hd lines);
  (* every data line has the right number of commas *)
  let cols = List.length (String.split_on_char ',' Export.csv_header) in
  List.iter
    (fun l ->
      Alcotest.(check int) "column count" cols
        (List.length (String.split_on_char ',' l)))
    (List.tl lines)

let test_utilization () =
  let trace = sample_trace () in
  (* fig1: 2 frames of 200 ms with constant WCETs *)
  let util = Exec_trace.utilization ~n_procs:2 ~span:(ms 400) trace in
  Alcotest.(check int) "one entry per processor" 2 (Array.length util);
  (* every executed job runs for its 25 ms WCET *)
  let executed =
    List.length (List.filter (fun (r : Exec_trace.record) -> not r.Exec_trace.skipped) trace)
  in
  let total = Array.fold_left ( +. ) 0.0 util in
  Alcotest.(check (float 1e-6)) "total utilization"
    (float_of_int executed *. 25.0 /. 400.0)
    total;
  Array.iter
    (fun u -> Alcotest.(check bool) "each in [0,1]" true (u >= 0.0 && u <= 1.0))
    util

let test_checker_latency_specs () =
  let base =
    { Fppn_verify.Checker.default_config with
      Fppn_verify.Checker.processor_counts = [ 2 ];
      jitter_seeds = [];
      frames = 2;
      inputs = Fppn_apps.Fig1.input_feed ~samples:32 }
  in
  let run specs =
    Fppn_verify.Checker.run
      ~config:{ base with Fppn_verify.Checker.latency_specs = specs }
      ~wcet:Fppn_apps.Fig1.wcet (Fppn_apps.Fig1.network ())
  in
  (* generous bound passes *)
  let ok =
    run
      [ { Fppn_verify.Checker.l_source = "InputA"; l_sink = "OutputA";
          max_reaction = ms 200 } ]
  in
  Alcotest.(check bool) "generous bound passes" true ok.Fppn_verify.Checker.passed;
  (* impossible bound fails *)
  let bad =
    run
      [ { Fppn_verify.Checker.l_source = "InputA"; l_sink = "OutputA";
          max_reaction = ms 10 } ]
  in
  Alcotest.(check bool) "tight bound fails" false bad.Fppn_verify.Checker.passed;
  (* unrelated pair reported as failure, not crash *)
  let unrelated =
    run
      [ { Fppn_verify.Checker.l_source = "OutputA"; l_sink = "OutputB";
          max_reaction = ms 200 } ]
  in
  Alcotest.(check bool) "unrelated pair fails gracefully" false
    unrelated.Fppn_verify.Checker.passed

let test_taskgraph_json () =
  let net = Fppn_apps.Fig1.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet net in
  let json = Graph.to_json d.Derive.graph in
  let count needle =
    let nl = String.length needle and hl = String.length json in
    let rec scan i acc =
      if i + nl > hl then acc
      else if String.sub json i nl = needle then scan (i + 1) (acc + 1)
      else scan (i + 1) acc
    in
    scan 0 0
  in
  Alcotest.(check int) "10 job objects" 10 (count "\"id\":");
  Alcotest.(check int) "10 edges" 10 (count "    [");
  Alcotest.(check bool) "server flag present" true (count "\"server\":true" = 2)

let test_schedule_load_missing_file () =
  match Sched.Schedule_io.load "/nonexistent/path.sched" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error"

let test_buffer_analysis_validation () =
  Alcotest.(check bool) "zero hyperperiods rejected" true
    (try
       ignore (Buffer_analysis.analyse ~hyperperiods:0 (unbalanced_net ()));
       false
     with Invalid_argument _ -> true)

let test_by_process_stats () =
  let trace = sample_trace () in
  let stats = Exec_trace.by_process trace in
  let find name = List.find (fun s -> s.Exec_trace.process = name) stats in
  let coef = find "CoefB" in
  Alcotest.(check int) "CoefB executed once (one real event)" 1
    coef.Exec_trace.p_executed;
  Alcotest.(check int) "CoefB skipped 3 slots over 2 frames" 3
    coef.Exec_trace.p_skipped;
  let filter_a = find "FilterA" in
  Alcotest.(check int) "FilterA 2 jobs per frame x 2 frames" 4
    filter_a.Exec_trace.p_executed;
  Alcotest.(check bool) "mean <= max" true
    (filter_a.Exec_trace.p_mean_response_ms
    <= Rat.to_float filter_a.Exec_trace.p_max_response +. 1e-9);
  Alcotest.(check int) "no misses" 0
    (List.fold_left (fun acc s -> acc + s.Exec_trace.p_misses) 0 stats)

let () =
  Alcotest.run "extensions"
    [
      ( "buffer-analysis",
        [
          Alcotest.test_case "unbounded detection" `Quick test_buffer_unbounded_detection;
          Alcotest.test_case "fig1 balanced" `Quick test_buffer_balanced_fig1;
          Alcotest.test_case "fft single-slot" `Quick test_buffer_fft_single_slot;
          Alcotest.test_case "default sporadic traces" `Quick
            test_buffer_default_sporadic_is_max_rate;
        ] );
      ( "global-edf",
        [
          Alcotest.test_case "runs" `Quick test_global_edf_runs;
          Alcotest.test_case "nondeterministic across jitter" `Quick
            test_global_edf_is_not_deterministic;
          Alcotest.test_case "fppn deterministic in the same setup" `Quick
            test_fppn_runtime_is_deterministic_same_setup;
          Alcotest.test_case "preemptions on two processors" `Quick
            test_global_edf_preemptions;
        ] );
      ( "dimension",
        [
          Alcotest.test_case "fft needs 2" `Quick test_dimension_fft;
          Alcotest.test_case "infeasible job" `Quick test_dimension_infeasible_job;
          Alcotest.test_case "fms needs 1" `Quick test_dimension_fms;
        ] );
      ( "latency",
        [
          Alcotest.test_case "fig1 InputA->OutputA" `Quick test_latency_fig1;
          Alcotest.test_case "requires a path" `Quick test_latency_requires_a_path;
          Alcotest.test_case "WCET bound dominates jitter" `Quick
            test_latency_deterministic_upper_bound;
          Alcotest.test_case "fms sensor->performance" `Quick test_latency_fms_chain;
        ] );
      ( "schedule-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_schedule_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_schedule_parse_errors;
          Alcotest.test_case "file roundtrip" `Quick test_schedule_file_roundtrip;
          prop_schedule_io_roundtrip_random;
        ] );
      ( "checker",
        [
          Alcotest.test_case "passes on good apps" `Slow test_checker_passes_on_good_apps;
          Alcotest.test_case "flags unbounded buffers" `Quick
            test_checker_flags_unbounded_buffers;
          Alcotest.test_case "reports subclass errors" `Quick
            test_checker_reports_subclass_errors;
          Alcotest.test_case "broken FP DAG rejected" `Quick
            test_broken_fp_dag_rejected_with_diagnostic;
          Alcotest.test_case "end-to-end latency specs" `Quick
            test_checker_latency_specs;
        ] );
      ( "export",
        [
          Alcotest.test_case "json" `Quick test_export_json;
          Alcotest.test_case "csv" `Quick test_export_csv;
          Alcotest.test_case "per-process stats" `Quick test_by_process_stats;
          Alcotest.test_case "utilization" `Quick test_utilization;
          Alcotest.test_case "taskgraph json" `Quick test_taskgraph_json;
          Alcotest.test_case "missing schedule file" `Quick
            test_schedule_load_missing_file;
          Alcotest.test_case "buffer validation" `Quick
            test_buffer_analysis_validation;
        ] );
    ]

(* Tests for the automotive engine-management application (the paper's
   industry motivation, ref. [3]), the classical response-time analysis,
   and the stepping interpreter. *)

module Rat = Rt_util.Rat
module V = Fppn.Value
module Network = Fppn.Network
module Process = Fppn.Process
module Semantics = Fppn.Semantics
module Stepper = Fppn.Stepper
module Derive = Taskgraph.Derive
module Graph = Taskgraph.Graph
module Analysis = Taskgraph.Analysis
module List_scheduler = Sched.List_scheduler
module Rta = Sched.Rta
module Engine = Runtime.Engine
module Exec_trace = Runtime.Exec_trace
module Preemptive = Runtime.Preemptive

let ms = Rat.of_int

let eq_sig a b =
  List.equal
    (fun (n1, h1) (n2, h2) -> String.equal n1 n2 && List.equal V.equal h1 h2)
    a b

(* --- automotive network ----------------------------------------------------- *)

let test_structure () =
  let net = Fppn_apps.Automotive.network () in
  Alcotest.(check int) "8 processes" 8 (Network.n_processes net);
  Alcotest.(check bool) "hyperperiod 200 over periodic+sporadic periods" true
    (Rat.equal (Network.hyperperiod net) (ms 200));
  (match Network.user_map net with
  | Error _ -> Alcotest.fail "engine app in the scheduling subclass"
  | Ok users ->
    let user_of name =
      match users.(Network.find net name) with
      | Some u -> Process.name (Network.process net u)
      | None -> "-"
    in
    Alcotest.(check string) "KnockSensor -> IgnitionCtrl" "IgnitionCtrl"
      (user_of "KnockSensor");
    Alcotest.(check string) "DriverRequest -> InjectionCtrl" "InjectionCtrl"
      (user_of "DriverRequest"));
  let d = Derive.derive_exn ~wcet:Fppn_apps.Automotive.wcet net in
  (* 20+20+20+10+2+1 periodic + 30 knock server + 20 driver server *)
  Alcotest.(check int) "123 jobs over the 200 ms hyperperiod" 123
    (Graph.n_jobs d.Derive.graph);
  let load = (Analysis.analyse d.Derive.graph).load.value in
  Alcotest.(check bool) "load in a schedulable band" true
    (Rat.to_float load > 0.3 && Rat.to_float load < 1.0)

let test_engine_behavior_end_to_end () =
  let net = Fppn_apps.Automotive.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Automotive.wcet net in
  let sched =
    match snd (List_scheduler.auto ~n_procs:2 d.Derive.graph) with
    | Some a -> a.List_scheduler.schedule
    | None -> Alcotest.fail "engine app should fit on two cores"
  in
  let horizon = d.Derive.hyperperiod in
  let sporadic =
    (* exclude horizon-edge events whose server window closes in the
       unsimulated next frame *)
    let raw = Fppn_apps.Automotive.knock_burst ~horizon in
    let _, unhandled = Engine.sporadic_assignment net d ~frames:1 raw in
    List.map
      (fun (n, stamps) ->
        (n, List.filter (fun s -> not (List.mem (n, s) unhandled)) stamps))
      raw
  in
  let config =
    { (Engine.default_config ~frames:1 ~n_procs:2 ()) with
      Engine.sporadic;
      inputs = Fppn_apps.Automotive.input_feed;
      exec = Runtime.Exec_time.uniform ~seed:2 ~min_fraction:0.5 }
  in
  let rt = Engine.run net d sched config in
  Alcotest.(check int) "no deadline misses" 0 rt.Engine.stats.Exec_trace.misses;
  Alcotest.(check (list string)) "trace complies with the semantics" []
    (List.map
       (Format.asprintf "%a" Exec_trace.pp_violation)
       (Exec_trace.check d.Derive.graph (Engine.trace rt)));
  (* 20 injector pulses per frame, knock retard visible in the ignition *)
  let injector = List.assoc "injector" (Engine.output_history rt) in
  Alcotest.(check int) "20 injector pulses" 20 (List.length injector);
  let ignition = List.assoc "ignition" (Engine.output_history rt) in
  Alcotest.(check int) "10 ignition updates" 10 (List.length ignition);
  (* before any knock event the retard is 0; after the 55 ms burst the
     spark output drops *)
  let nth l i = List.nth l i in
  let early = V.to_float (nth ignition 0) and late = V.to_float (nth ignition 4) in
  Alcotest.(check bool) "knock retards the spark" true (late < early);
  (* determinism against the zero-delay reference *)
  let zd =
    Semantics.run ~inputs:Fppn_apps.Automotive.input_feed net
      (Semantics.invocations ~sporadic ~horizon net)
  in
  Alcotest.(check bool) "deterministic" true
    (eq_sig (Semantics.signature zd) (Engine.signature rt))

let test_knock_trace_valid () =
  let net = Fppn_apps.Automotive.network () in
  let horizon = ms 400 in
  List.iter
    (fun (name, stamps) ->
      let ev = Process.event (Network.process net (Network.find net name)) in
      Alcotest.(check bool) (name ^ " trace valid") true
        (Fppn.Event.is_valid_sporadic_trace ev stamps))
    (Fppn_apps.Automotive.knock_burst ~horizon)

(* --- response-time analysis --------------------------------------------------- *)

let test_rta_simple_pair () =
  (* classic pair: C1=20 T1=50 (high), C2=30 T2=100 (low):
     R1 = 20; R2 fixpoint: 30 + ceil(50/50)*20 = 50 *)
  let b = Network.Builder.create "rta" in
  let add name period =
    Network.Builder.add_process b
      (Process.make ~name
         ~event:
           (Fppn.Event.periodic ~period:(ms period) ~deadline:(ms period) ())
         (Process.Native (fun _ -> ())))
  in
  add "Hi" 50;
  add "Lo" 100;
  let net = Network.Builder.finish_exn b in
  let wcet = Derive.wcet_of_list (ms 0) [ ("Hi", ms 20); ("Lo", ms 30) ] in
  let entries = Rta.analyse ~wcet net in
  Alcotest.(check bool) "schedulable" true (Rta.schedulable entries);
  let find n = List.find (fun e -> e.Rta.process = n) entries in
  Alcotest.(check (option (testable Rat.pp Rat.equal))) "R_Hi = 20" (Some (ms 20))
    (find "Hi").Rta.response;
  Alcotest.(check (option (testable Rat.pp Rat.equal))) "R_Lo = 50" (Some (ms 50))
    (find "Lo").Rta.response

let test_rta_unschedulable () =
  let b = Network.Builder.create "rta2" in
  let add name period =
    Network.Builder.add_process b
      (Process.make ~name
         ~event:
           (Fppn.Event.periodic ~period:(ms period) ~deadline:(ms period) ())
         (Process.Native (fun _ -> ())))
  in
  add "Hi" 50;
  add "Lo" 100;
  let net = Network.Builder.finish_exn b in
  (* utilization 40/50 + 40/100 = 1.2 *)
  let wcet = Derive.wcet_of_list (ms 0) [ ("Hi", ms 40); ("Lo", ms 40) ] in
  let entries = Rta.analyse ~wcet net in
  Alcotest.(check bool) "not schedulable" false (Rta.schedulable entries);
  let lo = List.find (fun e -> e.Rta.process = "Lo") entries in
  Alcotest.(check bool) "Lo is the victim" true (lo.Rta.response = None)

let test_rta_bounds_simulation () =
  (* the analytic bound dominates the simulated maxima (FMS workload) *)
  let net = Fppn_apps.Fms.reduced () in
  let entries = Rta.analyse ~wcet:Fppn_apps.Fms.wcet net in
  Alcotest.(check bool) "FMS schedulable under RM" true (Rta.schedulable entries);
  let horizon = ms 10_000 in
  let up =
    Preemptive.run net
      (Preemptive.default_config ~policy:(Fixed Rate_monotonic) ~n_procs:1
         ~wcet:Fppn_apps.Fms.wcet ~horizon)
  in
  (* per process: observed response <= analytic bound *)
  let observed = Hashtbl.create 16 in
  List.iter
    (fun (r : Preemptive.record) ->
      let resp = Rat.sub r.finished r.released in
      let prev =
        try Hashtbl.find observed r.process with Not_found -> Rat.zero
      in
      Hashtbl.replace observed r.process (Rat.max prev resp))
    up.records;
  List.iter
    (fun e ->
      match (e.Rta.response, Hashtbl.find_opt observed e.Rta.process) with
      | Some bound, Some seen ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: observed %s <= bound %s" e.Rta.process
             (Rat.to_string seen) (Rat.to_string bound))
          true
          Rat.(seen <= bound)
      | _ -> ())
    entries

let test_rta_sporadic_interference () =
  (* a bursty sporadic above a periodic victim adds m*C per window *)
  let b = Network.Builder.create "rta3" in
  Network.Builder.add_process b
    (Process.make ~name:"Burst"
       ~event:(Fppn.Event.sporadic ~burst:2 ~min_period:(ms 100) ~deadline:(ms 200) ())
       (Process.Native (fun _ -> ())));
  Network.Builder.add_process b
    (Process.make ~name:"Victim"
       ~event:(Fppn.Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native (fun _ -> ())));
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"Burst"
    ~reader:"Victim" "c";
  Network.Builder.add_priority b "Burst" "Victim";
  let net = Network.Builder.finish_exn b in
  let wcet = Derive.wcet_of_list (ms 0) [ ("Burst", ms 10); ("Victim", ms 30) ] in
  let entries =
    Rta.analyse ~priorities:[ ("Burst", 0); ("Victim", 1) ] ~wcet net
  in
  let victim = List.find (fun e -> e.Rta.process = "Victim") entries in
  (* R = 30 + 2*10 = 50 *)
  Alcotest.(check (option (testable Rat.pp Rat.equal))) "burst interference counted"
    (Some (ms 50)) victim.Rta.response

(* --- stepping interpreter ------------------------------------------------------ *)

let test_stepper_matches_run () =
  let net = Fppn_apps.Fig1.network () in
  let sporadic = [ ("CoefB", [ ms 50 ]) ] in
  let inputs = Fppn_apps.Fig1.input_feed ~samples:16 in
  let stepper = Stepper.create ~sporadic ~inputs ~horizon:(ms 400) net in
  Alcotest.(check (option (testable Rat.pp Rat.equal))) "first instant at 0"
    (Some (ms 0)) (Stepper.now stepper);
  (* instants: 0, 50, 100, 200, 300 *)
  Alcotest.(check int) "five instants pending" 5 (Stepper.remaining stepper);
  let first = Option.get (Stepper.step stepper) in
  Alcotest.(check bool) "InputA runs first at t=0" true
    (fst (List.hd first.Stepper.executed) = "InputA");
  (* channel state is inspectable mid-run *)
  let gain = Fppn.Channel.peek (Fppn.Netstate.channel_state (Stepper.state stepper) "gain") in
  Alcotest.(check bool) "gain blackboard written at t=0" true (not (V.is_absent gain));
  let rest = Stepper.run_to_end stepper in
  Alcotest.(check int) "remaining instants executed" 4 (List.length rest);
  Alcotest.(check int) "exhausted" 0 (Stepper.remaining stepper);
  Alcotest.(check bool) "no more steps" true (Stepper.step stepper = None);
  (* final histories coincide with the one-shot run *)
  let reference =
    Semantics.run ~inputs net (Semantics.invocations ~sporadic ~horizon:(ms 400) net)
  in
  Alcotest.(check bool) "histories equal the one-shot interpreter" true
    (eq_sig
       (Semantics.signature reference)
       (List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (Fppn.Netstate.channel_history (Stepper.state stepper)
          @ Fppn.Netstate.output_history (Stepper.state stepper))))

let test_stepper_execution_order_within_instant () =
  let net = Fppn_apps.Fig1.network () in
  let stepper = Stepper.create ~horizon:(ms 200) net in
  let s = Option.get (Stepper.step stepper) in
  let order = List.map fst s.Stepper.executed in
  let pos n =
    let rec find i = function
      | [] -> Alcotest.failf "%s did not run" n
      | x :: _ when x = n -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 order
  in
  Alcotest.(check bool) "InputA before FilterA" true (pos "InputA" < pos "FilterA");
  Alcotest.(check bool) "FilterA before NormA" true (pos "FilterA" < pos "NormA");
  Alcotest.(check bool) "FilterB before OutputB" true (pos "FilterB" < pos "OutputB")

let () =
  Alcotest.run "automotive-rta-stepper"
    [
      ( "automotive",
        [
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "end-to-end behavior" `Quick test_engine_behavior_end_to_end;
          Alcotest.test_case "knock traces valid" `Quick test_knock_trace_valid;
        ] );
      ( "rta",
        [
          Alcotest.test_case "textbook pair" `Quick test_rta_simple_pair;
          Alcotest.test_case "unschedulable" `Quick test_rta_unschedulable;
          Alcotest.test_case "bounds the simulation" `Quick test_rta_bounds_simulation;
          Alcotest.test_case "sporadic interference" `Quick test_rta_sporadic_interference;
        ] );
      ( "stepper",
        [
          Alcotest.test_case "matches run" `Quick test_stepper_matches_run;
          Alcotest.test_case "order within an instant" `Quick
            test_stepper_execution_order_within_instant;
        ] );
    ]

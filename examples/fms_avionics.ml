(* The avionics case study of Sec. V-B: the Flight Management System
   subsystem of Fig. 7 (best-computed-position fusion + performance
   prediction), with random pilot configuration commands, executed over
   one 10 s hyperperiod and cross-checked against both the zero-delay
   semantics and the rate-monotonic uniprocessor prototype.

   Run with:  dune exec examples/fms_avionics.exe *)

module Rat = Rt_util.Rat
module V = Fppn.Value
module Fms = Fppn_apps.Fms
module Engine = Runtime.Engine

let () =
  let net = Fms.reduced () in
  let d = Taskgraph.Derive.derive_exn ~wcet:Fms.wcet net in
  let g = d.Taskgraph.Derive.graph in
  Printf.printf
    "FMS (reduced): %d processes, hyperperiod %s ms, %d jobs, %d edges, load %.3f\n"
    (Fppn.Network.n_processes net)
    (Rat.to_string d.Taskgraph.Derive.hyperperiod)
    (Taskgraph.Graph.n_jobs g)
    (Taskgraph.Graph.n_edges g)
    (Rat.to_float (Taskgraph.Analysis.analyse g).load.value);

  (* pilot commands: random sporadic traces respecting each (m,T) *)
  let horizon = d.Taskgraph.Derive.hyperperiod in
  let traces = Fms.random_config_traces ~seed:2026 ~horizon ~density:0.6 net in
  List.iter
    (fun (name, stamps) ->
      Printf.printf "  %-18s %d command(s)\n" name (List.length stamps))
    traces;
  (* exclude the horizon-edge events the simulated window cannot handle *)
  let traces = Engine.handled_traces net d ~frames:1 traces in

  (* schedule and execute on 1 and 2 processors *)
  List.iter
    (fun n_procs ->
      let sched =
        match snd (Sched.List_scheduler.auto ~n_procs g) with
        | Some a -> a.Sched.List_scheduler.schedule
        | None -> failwith "FMS should be schedulable"
      in
      let config =
        { (Engine.default_config ~frames:1 ~n_procs ()) with
          Engine.sporadic = traces;
          exec = Runtime.Exec_time.uniform ~seed:n_procs ~min_fraction:0.5 }
      in
      let rt = Engine.run net d sched config in
      Format.printf "M=%d: %a@." n_procs Runtime.Exec_trace.pp_stats
        rt.Engine.stats)
    [ 1; 2 ];

  (* determinism: FPPN runtime vs zero-delay vs RM uniprocessor *)
  let sched =
    match snd (Sched.List_scheduler.auto ~n_procs:2 g) with
    | Some a -> a.Sched.List_scheduler.schedule
    | None -> assert false
  in
  let rt =
    Engine.run net d sched
      { (Engine.default_config ~frames:1 ~n_procs:2 ()) with
        Engine.sporadic = traces }
  in
  let zd =
    Fppn.Semantics.run net
      (Fppn.Semantics.invocations ~sporadic:traces ~horizon net)
  in
  let up =
    Runtime.Preemptive.run net
      { (Runtime.Preemptive.default_config ~policy:(Fixed Rate_monotonic)
           ~n_procs:1 ~wcet:Fms.wcet ~horizon)
        with
        Runtime.Preemptive.sporadic = traces }
  in
  let eq = Fppn.Semantics.equal_signature in
  Printf.printf "FPPN runtime = zero-delay reference: %b\n"
    (eq (Engine.signature rt) (Fppn.Semantics.signature zd));
  Printf.printf "RM uniprocessor prototype = zero-delay reference: %b\n"
    (eq (Runtime.Preemptive.signature up) (Fppn.Semantics.signature zd));

  (* a peek at the flight outputs *)
  let show name n =
    match List.assoc_opt name (Engine.output_history rt) with
    | Some history ->
      let first = List.filteri (fun i _ -> i < n) history in
      Printf.printf "  %-12s (first %d of %d): %s\n" name n
        (List.length history)
        (String.concat ", "
           (List.map
              (fun v ->
                match v with V.Float f -> Printf.sprintf "%.3f" f | v -> V.to_string v)
              first))
    | None -> ()
  in
  print_endline "flight outputs:";
  show "bcp_out" 5;
  show "lowfreq_out" 2;
  show "perf_out" 5

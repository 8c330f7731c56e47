module Rat = Rt_util.Rat
module Digraph = Rt_util.Digraph
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job
module Derive = Taskgraph.Derive
module Priority = Sched.Priority
module Static_schedule = Sched.Static_schedule
module List_scheduler = Sched.List_scheduler
module Pqueue = Rt_util.Pqueue

let ms = Rat.of_int
let rat = Alcotest.testable Rat.pp Rat.equal

let mk_job id ?(name = Printf.sprintf "P%d" id) ?(k = 1) a d c =
  {
    Job.id;
    proc = id;
    proc_name = name;
    k;
    arrival = ms a;
    deadline = ms d;
    wcet = ms c;
    is_server = false;
  }

let chain3 () =
  (* J0 -> J1 -> J2, plenty of slack *)
  let jobs = [| mk_job 0 0 300 50; mk_job 1 0 300 50; mk_job 2 0 300 50 |] in
  let dag = Digraph.create 3 in
  Digraph.add_edge dag 0 1;
  Digraph.add_edge dag 1 2;
  Graph.make jobs dag

(* --- priority heuristics ------------------------------------------------ *)

let test_heuristic_orders () =
  let jobs =
    [| mk_job 0 0 300 10; mk_job 1 0 100 10; mk_job 2 50 200 10 |]
  in
  let g = Graph.make jobs (Digraph.create 3) in
  Alcotest.(check (array int)) "EDF-nominal sorts by deadline" [| 1; 2; 0 |]
    (Priority.order g Priority.Edf_nominal);
  Alcotest.(check (array int)) "FIFO sorts by arrival" [| 0; 1; 2 |]
    (Priority.order g Priority.Fifo_arrival);
  Alcotest.(check (array int)) "DM sorts by relative deadline" [| 1; 2; 0 |]
    (Priority.order g Priority.Deadline_monotonic);
  (* rank is the inverse of order *)
  let rank = Priority.rank g Priority.Edf_nominal in
  Alcotest.(check int) "rank of highest" 0 rank.(1);
  Alcotest.(check int) "rank of lowest" 2 rank.(0)

let test_blevel_priority () =
  let g = chain3 () in
  Alcotest.(check (array int)) "b-level: deepest first" [| 0; 1; 2 |]
    (Priority.order g Priority.B_level)

let test_heuristic_strings () =
  List.iter
    (fun h ->
      match Priority.of_string (Priority.to_string h) with
      | Some h' -> Alcotest.(check bool) "roundtrip" true (h = h')
      | None -> Alcotest.fail "of_string failed")
    Priority.all;
  Alcotest.(check bool) "unknown string" true (Priority.of_string "bogus" = None)

(* --- static schedule checker -------------------------------------------- *)

let entry proc start = { Static_schedule.proc; start = ms start }

let test_check_valid () =
  let g = chain3 () in
  let s = Static_schedule.make ~n_procs:2 [| entry 0 0; entry 1 50; entry 0 100 |] in
  Alcotest.(check (list string)) "no violations" []
    (List.map
       (Format.asprintf "%a" (Static_schedule.pp_violation g))
       (Static_schedule.check g s));
  Alcotest.check rat "makespan" (ms 150) (Static_schedule.makespan g s);
  Alcotest.(check (list int)) "static order on M1" [ 0; 2 ] (Static_schedule.jobs_on s 0)

let test_check_violations () =
  let g = chain3 () in
  (* J1 starts before J0 completes; J2 overlaps J0 on processor 0;
     also J2 starts before its predecessor J1 finishes *)
  let s = Static_schedule.make ~n_procs:2 [| entry 0 0; entry 1 20; entry 0 30 |] in
  let vs = Static_schedule.check g s in
  let has p = List.exists p vs in
  Alcotest.(check bool) "precedence violated" true
    (has (function Static_schedule.Precedence _ -> true | _ -> false));
  Alcotest.(check bool) "overlap detected" true
    (has (function Static_schedule.Overlap _ -> true | _ -> false));
  Alcotest.(check bool) "not feasible" false (Static_schedule.is_feasible g s)

let test_check_arrival_deadline () =
  let jobs = [| mk_job 0 100 150 20 |] in
  let g = Graph.make jobs (Digraph.create 1) in
  let early = Static_schedule.make ~n_procs:1 [| entry 0 50 |] in
  Alcotest.(check bool) "arrival violation" true
    (List.exists
       (function Static_schedule.Arrival 0 -> true | _ -> false)
       (Static_schedule.check g early));
  let late = Static_schedule.make ~n_procs:1 [| entry 0 140 |] in
  Alcotest.(check bool) "deadline violation" true
    (List.exists
       (function Static_schedule.Deadline 0 -> true | _ -> false)
       (Static_schedule.check g late))

let test_make_validation () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Static_schedule.make ~n_procs:1 [||]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "processor out of range rejected" true
    (try
       ignore (Static_schedule.make ~n_procs:1 [| entry 3 0 |]);
       false
     with Invalid_argument _ -> true)

(* --- list scheduler ------------------------------------------------------ *)

let test_list_scheduling_chain () =
  let g = chain3 () in
  let s = List_scheduler.schedule_with ~heuristic:Priority.Alap_edf ~n_procs:2 g in
  Alcotest.(check bool) "feasible" true (Static_schedule.is_feasible g s);
  (* a chain cannot be parallelized: makespan = 150 regardless of M *)
  Alcotest.check rat "chain makespan" (ms 150) (Static_schedule.makespan g s)

let test_list_scheduling_parallelism () =
  (* two independent jobs must run in parallel on two processors *)
  let jobs = [| mk_job 0 0 100 80; mk_job 1 0 100 80 |] in
  let g = Graph.make jobs (Digraph.create 2) in
  let s1 = List_scheduler.schedule_with ~heuristic:Priority.Alap_edf ~n_procs:1 g in
  Alcotest.(check bool) "M=1 infeasible (160 > 100)" false
    (Static_schedule.is_feasible g s1);
  let s2 = List_scheduler.schedule_with ~heuristic:Priority.Alap_edf ~n_procs:2 g in
  Alcotest.(check bool) "M=2 feasible" true (Static_schedule.is_feasible g s2);
  Alcotest.check rat "parallel makespan" (ms 80) (Static_schedule.makespan g s2);
  Alcotest.(check bool) "jobs on different processors" true
    (Static_schedule.proc s2 0 <> Static_schedule.proc s2 1)

let test_list_scheduling_respects_arrival () =
  let jobs = [| mk_job 0 100 300 50 |] in
  let g = Graph.make jobs (Digraph.create 1) in
  let s = List_scheduler.schedule_with ~heuristic:Priority.Fifo_arrival ~n_procs:1 g in
  Alcotest.check rat "waits for arrival" (ms 100) (Static_schedule.start s 0)

let test_list_scheduling_priority_decides () =
  (* two ready jobs, one processor: the higher-priority one goes first *)
  let jobs = [| mk_job 0 0 400 50; mk_job 1 0 100 50 |] in
  let g = Graph.make jobs (Digraph.create 2) in
  let s = List_scheduler.schedule_with ~heuristic:Priority.Edf_nominal ~n_procs:1 g in
  Alcotest.check rat "urgent job first" (ms 0) (Static_schedule.start s 1);
  Alcotest.check rat "other second" (ms 50) (Static_schedule.start s 0)

let test_auto_fig1 () =
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet (Fppn_apps.Fig1.network ()) in
  let g = d.Derive.graph in
  (* 10 jobs x 25 ms = 250 ms > 200 ms: one processor cannot work *)
  let _, best1 = List_scheduler.auto ~n_procs:1 g in
  Alcotest.(check bool) "M=1 infeasible" true (best1 = None);
  (* the paper's Fig. 4 uses two processors *)
  let attempts, best2 = List_scheduler.auto ~n_procs:2 g in
  Alcotest.(check int) "all heuristics tried" (List.length Priority.all)
    (List.length attempts);
  match best2 with
  | None -> Alcotest.fail "M=2 must be feasible as in Fig. 4"
  | Some a ->
    Alcotest.(check bool) "chosen attempt is feasible" true
      a.List_scheduler.feasible;
    Alcotest.(check bool) "fits in the frame" true
      Rat.(a.List_scheduler.makespan <= ms 200)

let test_auto_parallel_equals_sequential () =
  (* evaluating the heuristic portfolio on a pool must not change the
     attempt list or the chosen schedule *)
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet (Fppn_apps.Fig1.network ()) in
  let g = d.Derive.graph in
  let seq_attempts, seq_best = List_scheduler.auto ~n_procs:2 g in
  Rt_util.Pool.with_pool ~jobs:4 (fun pool ->
      let par_attempts, par_best = List_scheduler.auto ~pool ~n_procs:2 g in
      Alcotest.(check bool) "same attempts in same order" true
        (seq_attempts = par_attempts);
      Alcotest.(check bool) "same chosen attempt" true (seq_best = par_best))

let test_cosched_auto_parallel_equals_sequential () =
  (* the multi-application portfolio must be pool-invariant too, for
     both co-scheduling variants *)
  let module Cosched = Sched.Cosched in
  let graph_of wcet net = (Derive.derive_exn ~wcet net).Derive.graph in
  let apps =
    [
      {
        Cosched.app_name = "fig1";
        app_priority = 0;
        graph = graph_of Fppn_apps.Fig1.wcet (Fppn_apps.Fig1.network ());
      };
      {
        Cosched.app_name = "auto";
        app_priority = 1;
        graph =
          graph_of Fppn_apps.Automotive.wcet (Fppn_apps.Automotive.network ());
      };
    ]
  in
  List.iter
    (fun variant ->
      let seq_attempts, seq_chosen = Cosched.auto ~variant ~n_procs:3 apps in
      Rt_util.Pool.with_pool ~jobs:4 (fun pool ->
          let par_attempts, par_chosen =
            Cosched.auto ~pool ~variant ~n_procs:3 apps
          in
          let name = Cosched.variant_to_string variant in
          Alcotest.(check int)
            (name ^ ": same attempt count")
            (List.length seq_attempts)
            (List.length par_attempts);
          List.iter2
            (fun (s : Cosched.attempt) (p : Cosched.attempt) ->
              Alcotest.(check bool)
                (name ^ ": same heuristic order")
                true (s.Cosched.heuristic = p.Cosched.heuristic);
              Alcotest.(check string)
                (name ^ ": same attempt schedule")
                (Cosched.to_json s.Cosched.result)
                (Cosched.to_json p.Cosched.result))
            seq_attempts par_attempts;
          match (seq_chosen, par_chosen) with
          | None, None -> ()
          | Some s, Some p ->
            Alcotest.(check string)
              (name ^ ": same chosen schedule")
              (Cosched.to_json s.Cosched.result)
              (Cosched.to_json p.Cosched.result)
          | _ -> Alcotest.failf "%s: pool changed feasibility verdict" name))
    [ Cosched.Fair; Cosched.Slots ]

(* --- zero WCET ---------------------------------------------------------------- *)

let structural_violations g s =
  List.filter
    (function Static_schedule.Deadline _ -> false | _ -> true)
    (Static_schedule.check g s)

(* every heuristic on M = 1..4: no exception, every job placed, and no
   arrival, precedence or overlap violation *)
let check_zero_wcet label g =
  List.iter
    (fun heuristic ->
      for n_procs = 1 to 4 do
        let case =
          Printf.sprintf "%s, %s, M=%d" label (Priority.to_string heuristic)
            n_procs
        in
        match List_scheduler.schedule_with ~heuristic ~n_procs g with
        | s ->
          Alcotest.(check int) (case ^ ": every job scheduled") (Graph.n_jobs g)
            (Static_schedule.n_jobs s);
          Alcotest.(check (list string))
            (case ^ ": no structural violation") []
            (List.map
               (Format.asprintf "%a" (Static_schedule.pp_violation g))
               (structural_violations g s))
        | exception e ->
          Alcotest.failf "%s: raised %s" case (Printexc.to_string e)
      done)
    Priority.all

let test_zero_wcet_fig1 () =
  (* a zero-WCET job finishes at the instant it starts; its successors
     must still be released at that instant *)
  let net = Fppn_apps.Fig1.network () in
  Array.iter
    (fun proc ->
      let name = Fppn.Process.name proc in
      let wcet p = if p = name then Rat.zero else Fppn_apps.Fig1.wcet p in
      check_zero_wcet ("fig1, " ^ name ^ " zero")
        (Derive.derive_exn ~wcet net).Derive.graph)
    (Fppn.Network.processes net);
  check_zero_wcet "fig1, every WCET zero"
    (Derive.derive_exn ~wcet:(Derive.const_wcet Rat.zero) net).Derive.graph

(* --- heap scheduler vs the quadratic reference --------------------------------- *)

(* The list scheduler as it was before its event loop moved to heaps:
   every event sweeps all jobs for due arrivals and for completions.
   Kept verbatim as the differential reference; it cannot schedule a
   zero-WCET job that has successors. *)
let reference_schedule ~rank ~n_procs g =
  Fppn_obs.Trace.with_span "sched.list" @@ fun () ->
  let n = Graph.n_jobs g in
  if Array.length rank <> n then
    invalid_arg "List_scheduler.schedule: rank array size mismatch";
  if n_procs <= 0 then invalid_arg "List_scheduler.schedule: no processors";
  let entries =
    Array.make n { Static_schedule.proc = 0; start = Rat.zero }
  in
  let started = Array.make n false in
  let finish_time = Array.make n Rat.zero in
  let missing_preds = Array.init n (fun i -> List.length (Graph.preds g i)) in
  let proc_free = Array.make n_procs Rat.zero in
  (* ready queue ordered by schedule priority *)
  let ready = Pqueue.create ~cmp:(fun a b -> Int.compare rank.(a) rank.(b)) in
  (* future wake-up times: arrivals of jobs whose predecessors are done,
     and completions that release successors or processors *)
  let events = Pqueue.create ~cmp:Rat.compare in
  let pending_arrival = Array.make n false in
  let release now i =
    (* all predecessors done; becomes ready at max(now, A_i) *)
    let j = Graph.job g i in
    if Rat.(j.Job.arrival <= now) then Pqueue.push ready i
    else if not pending_arrival.(i) then begin
      pending_arrival.(i) <- true;
      Pqueue.push events j.Job.arrival
    end
  in
  Array.iteri
    (fun i _ -> if missing_preds.(i) = 0 then release Rat.zero i)
    entries;
  (* also re-check arrival-released jobs at each event time *)
  let scheduled_count = ref 0 in
  let rec dispatch now =
    (* move arrival-pending jobs whose time has come *)
    for i = 0 to n - 1 do
      if
        pending_arrival.(i)
        && Rat.((Graph.job g i).Job.arrival <= now)
      then begin
        pending_arrival.(i) <- false;
        Pqueue.push ready i
      end
    done;
    (* find a free processor: smallest free time <= now, lowest index *)
    let free = ref (-1) in
    for p = n_procs - 1 downto 0 do
      if Rat.(proc_free.(p) <= now) then free := p
    done;
    if !free >= 0 then
      match Pqueue.pop ready with
      | None -> ()
      | Some i ->
        let p = !free in
        entries.(i) <- { Static_schedule.proc = p; start = now };
        started.(i) <- true;
        incr scheduled_count;
        let e = Rat.add now (Graph.job g i).Job.wcet in
        finish_time.(i) <- e;
        proc_free.(p) <- e;
        Pqueue.push events e;
        dispatch now
  in
  dispatch Rat.zero;
  let completed_up_to = ref Rat.zero in
  let complete_jobs now =
    (* successors of jobs finishing at or before [now] become eligible *)
    for i = 0 to n - 1 do
      if
        started.(i)
        && Rat.(finish_time.(i) <= now)
        && Rat.(finish_time.(i) > !completed_up_to)
      then
        List.iter
          (fun s ->
            missing_preds.(s) <- missing_preds.(s) - 1;
            if missing_preds.(s) = 0 then release now s)
          (Graph.succs g i)
    done;
    completed_up_to := Rat.max !completed_up_to now
  in
  let rec run () =
    match Pqueue.pop events with
    | None -> ()
    | Some t ->
      complete_jobs t;
      dispatch t;
      run ()
  in
  run ();
  assert (!scheduled_count = n || n = 0);
  Static_schedule.make ~n_procs entries

let same_schedule g a b =
  let n_procs = Static_schedule.n_procs a in
  n_procs = Static_schedule.n_procs b
  && List.for_all
       (fun i ->
         let ea = Static_schedule.entry a i and eb = Static_schedule.entry b i in
         ea.Static_schedule.proc = eb.Static_schedule.proc
         && Rat.equal ea.Static_schedule.start eb.Static_schedule.start)
       (List.init (Graph.n_jobs g) Fun.id)
  && List.for_all
       (fun p -> Static_schedule.jobs_on a p = Static_schedule.jobs_on b p)
       (List.init n_procs Fun.id)

let matches_reference ?(procs = [ 1; 2; 3; 4 ]) g =
  List.for_all
    (fun heuristic ->
      let rank = Priority.rank g heuristic in
      List.for_all
        (fun n_procs ->
          same_schedule g
            (List_scheduler.schedule ~rank ~n_procs g)
            (reference_schedule ~rank ~n_procs g))
        procs)
    Priority.all

(* the built-in apps the CLI names, plus the allocation probe;
   random-wide (16500 one-job processes) is left out, the quadratic
   reference is too slow on it for `dune runtest` *)
let test_reference_apps () =
  let fft = Fppn_apps.Fft.default_params in
  let random =
    Fppn_apps.Randgen.network { Fppn_apps.Randgen.default_params with seed = 42 }
  in
  List.iter
    (fun (label, procs, net, wcet) ->
      let g = (Derive.derive_exn ~wcet net).Derive.graph in
      Alcotest.(check bool) (label ^ ": same schedules as the reference") true
        (matches_reference ~procs g))
    [
      ("fig1", [ 1; 2; 3; 4 ], Fppn_apps.Fig1.network (), Fppn_apps.Fig1.wcet);
      ("fft", [ 1; 2; 3; 4 ], Fppn_apps.Fft.network fft, Fppn_apps.Fft.wcet_map fft);
      ( "fft-overhead", [ 1; 2; 3; 4 ],
        Fppn_apps.Fft.network_with_overhead_job fft,
        Fppn_apps.Fft.wcet_map_with_overhead fft ~overhead:(ms 41) );
      ( "automotive", [ 1; 2; 3; 4 ], Fppn_apps.Automotive.network (),
        Fppn_apps.Automotive.wcet );
      ("fms", [ 1; 2; 3; 4 ], Fppn_apps.Fms.reduced (), Fppn_apps.Fms.wcet);
      ("fms-original", [ 2 ], Fppn_apps.Fms.original (), Fppn_apps.Fms.wcet);
      ( "random", [ 1; 2; 3; 4 ], random,
        Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 10) (Derive.const_wcet Rat.one)
          random );
      ( "alloc-probe", [ 1; 2; 3; 4 ], Fppn_apps.Alloc_probe.network (),
        Fppn_apps.Alloc_probe.wcet );
    ]

(* --- priority optimizer ----------------------------------------------------- *)

let test_optimizer_never_worse () =
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet (Fppn_apps.Fig1.network ()) in
  let g = d.Derive.graph in
  let base =
    List_scheduler.schedule_with ~heuristic:Priority.Alap_edf ~n_procs:2 g
  in
  let o = Sched.Optimizer.improve ~seed:3 ~iterations:100 ~n_procs:2 g in
  Alcotest.(check bool) "still feasible" true o.Sched.Optimizer.feasible;
  Alcotest.(check bool) "makespan not worse" true
    Rat.(o.Sched.Optimizer.makespan <= Static_schedule.makespan g base);
  Alcotest.(check bool) "resulting schedule is structurally valid" true
    (List.for_all
       (function Static_schedule.Deadline _ -> true | _ -> false)
       (Static_schedule.check g o.Sched.Optimizer.schedule))

let test_optimizer_repairs_bad_heuristic () =
  (* FIFO misses a deadline on fig1; the optimizer should repair it *)
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet (Fppn_apps.Fig1.network ()) in
  let g = d.Derive.graph in
  let base = List_scheduler.schedule_with ~heuristic:Priority.Fifo_arrival ~n_procs:2 g in
  Alcotest.(check bool) "FIFO baseline infeasible" false
    (Static_schedule.is_feasible g base);
  let o =
    Sched.Optimizer.improve ~seed:7 ~iterations:600 ~start:Priority.Fifo_arrival
      ~n_procs:2 g
  in
  Alcotest.(check bool) "optimizer repaired feasibility" true
    o.Sched.Optimizer.feasible;
  Alcotest.(check bool) "some swaps were accepted" true
    (o.Sched.Optimizer.improvements > 0)

let test_optimizer_deterministic () =
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet (Fppn_apps.Fig1.network ()) in
  let g = d.Derive.graph in
  let a = Sched.Optimizer.improve ~seed:5 ~iterations:50 ~n_procs:2 g in
  let b = Sched.Optimizer.improve ~seed:5 ~iterations:50 ~n_procs:2 g in
  Alcotest.(check (array int)) "same seed, same ranks" a.Sched.Optimizer.rank
    b.Sched.Optimizer.rank

(* --- exact branch-and-bound --------------------------------------------------- *)

let test_exact_chain () =
  let g = chain3 () in
  let r = Sched.Exact.solve ~n_procs:2 g in
  Alcotest.(check bool) "optimal proved" true r.Sched.Exact.optimal;
  Alcotest.(check (option (testable Rat.pp Rat.equal))) "chain optimum 150"
    (Some (ms 150)) r.Sched.Exact.makespan;
  match r.Sched.Exact.schedule with
  | Some s -> Alcotest.(check bool) "schedule feasible" true (Static_schedule.is_feasible g s)
  | None -> Alcotest.fail "expected a schedule"

let test_exact_beats_or_matches_heuristics () =
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet (Fppn_apps.Fig1.network ()) in
  let g = d.Derive.graph in
  let r = Sched.Exact.solve ~n_procs:2 g in
  Alcotest.(check bool) "optimal proved on 10 jobs" true r.Sched.Exact.optimal;
  let opt = Option.get r.Sched.Exact.makespan in
  (* ALAP-EDF achieved 125; the optimum can be no larger *)
  Alcotest.(check bool) "optimum <= heuristic" true Rat.(opt <= ms 125);
  (* and no smaller than the critical path *)
  let cp, _ = Taskgraph.Analysis.critical_path g in
  ignore cp;
  let s =
    List_scheduler.schedule_with ~heuristic:Priority.Alap_edf ~n_procs:2 g
  in
  let gap =
    Sched.Exact.optimality_gap ~n_procs:2
      ~heuristic_makespan:(Static_schedule.makespan g s) g
  in
  Alcotest.(check bool) "gap computed and non-negative" true
    (match gap with Some x -> x >= -.1e-9 | None -> false)

let test_exact_detects_infeasibility () =
  (* two serialized 80 ms jobs, both due at 100: infeasible on any M *)
  let jobs = [| mk_job 0 0 100 80; mk_job 1 0 100 80 |] in
  let dag = Digraph.create 2 in
  Digraph.add_edge dag 0 1;
  let g = Graph.make jobs dag in
  let r = Sched.Exact.solve ~n_procs:4 g in
  Alcotest.(check bool) "exhausted" true r.Sched.Exact.optimal;
  Alcotest.(check bool) "no feasible schedule exists" true
    (r.Sched.Exact.schedule = None)

let test_exact_parallel_same_optimum () =
  (* the parallel fan-out must prove the same optimal makespan (the
     witness schedule and node count may legitimately differ) *)
  Rt_util.Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun g ->
          let seq = Sched.Exact.solve ~n_procs:2 g in
          let par = Sched.Exact.solve ~pool ~n_procs:2 g in
          Alcotest.(check bool) "both exhaust" true
            (seq.Sched.Exact.optimal && par.Sched.Exact.optimal);
          Alcotest.(check (option (testable Rat.pp Rat.equal))) "same optimum"
            seq.Sched.Exact.makespan par.Sched.Exact.makespan;
          match par.Sched.Exact.schedule with
          | Some s ->
            Alcotest.(check bool) "parallel witness feasible" true
              (Static_schedule.is_feasible g s)
          | None ->
            Alcotest.(check bool) "no schedule iff sequential agrees" true
              (seq.Sched.Exact.schedule = None))
        [
          chain3 ();
          (Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet (Fppn_apps.Fig1.network ()))
            .Derive.graph;
        ])

let test_exact_respects_budget () =
  let params =
    { Fppn_apps.Randgen.default_params with seed = 9; n_periodic = 7; n_sporadic = 2 }
  in
  let net = Fppn_apps.Randgen.network params in
  let wcet =
    Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 10) (Derive.const_wcet Rat.one) net
  in
  let d = Derive.derive_exn ~wcet net in
  let r = Sched.Exact.solve ~node_budget:500 ~n_procs:2 d.Derive.graph in
  Alcotest.(check bool) "budget respected" true (r.Sched.Exact.nodes <= 501);
  Alcotest.(check bool) "reports incompleteness" true
    ((not r.Sched.Exact.optimal) || r.Sched.Exact.nodes <= 500)

(* --- properties ----------------------------------------------------------- *)

let qprop name ?(count = 60) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let random_params_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000 in
    let* n_periodic = int_range 2 7 in
    let* n_sporadic = int_range 0 2 in
    let* heuristic = oneofl Priority.all in
    let* n_procs = int_range 1 4 in
    (* 0: every WCET positive; k: roughly one process in k costs nothing *)
    let* zero_every = oneofl [ 0; 2; 3; 4 ] in
    return (seed, n_periodic, n_sporadic, heuristic, n_procs, zero_every))

let prop_schedule_structurally_valid =
  qprop "list schedules satisfy arrival/precedence/mutual-exclusion"
    ~count:200 random_params_gen
    (fun (seed, n_periodic, n_sporadic, heuristic, n_procs, zero_every) ->
      let params =
        { Fppn_apps.Randgen.default_params with seed; n_periodic; n_sporadic }
      in
      let net = Fppn_apps.Randgen.network params in
      let base =
        Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 20) (Derive.const_wcet Rat.one) net
      in
      let wcet p =
        if zero_every > 0 && Hashtbl.hash (seed, p) mod zero_every = 0 then
          Rat.zero
        else base p
      in
      let d = Derive.derive_exn ~wcet net in
      let g = d.Derive.graph in
      let s = List_scheduler.schedule_with ~heuristic ~n_procs g in
      (* deadlines may be missed; the structural constraints may not *)
      structural_violations g s = [])

let prop_exact_dominates_heuristic =
  qprop "exact B&B never exceeds the heuristic makespan" ~count:20
    QCheck2.Gen.(pair (int_range 0 5_000) (int_range 2 4))
    (fun (seed, n_periodic) ->
      let params =
        { Fppn_apps.Randgen.default_params with seed; n_periodic; n_sporadic = 1 }
      in
      let net = Fppn_apps.Randgen.network params in
      let wcet =
        Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 10) (Derive.const_wcet Rat.one) net
      in
      let g = (Derive.derive_exn ~wcet net).Derive.graph in
      if Graph.n_jobs g > 14 then true (* keep the search small *)
      else
        let s = List_scheduler.schedule_with ~heuristic:Priority.Alap_edf ~n_procs:2 g in
        let r = Sched.Exact.solve ~node_budget:300_000 ~n_procs:2 g in
        match (r.Sched.Exact.makespan, r.Sched.Exact.optimal) with
        | Some opt, true ->
          (* when the heuristic is feasible, the optimum is no worse *)
          (not (Static_schedule.is_feasible g s))
          || Rat.(opt <= Static_schedule.makespan g s)
        | None, true ->
          (* proved infeasible: the heuristic must miss deadlines too *)
          not (Static_schedule.is_feasible g s)
        | _, false -> true)

let prop_necessary_condition_is_necessary =
  qprop "Prop. 3.1: a feasible schedule implies the necessary condition"
    ~count:40
    QCheck2.Gen.(triple (int_range 0 5_000) (int_range 2 6) (int_range 1 3))
    (fun (seed, n_periodic, n_procs) ->
      let params =
        { Fppn_apps.Randgen.default_params with seed; n_periodic; n_sporadic = 1 }
      in
      let net = Fppn_apps.Randgen.network params in
      let wcet =
        Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 8) (Derive.const_wcet Rat.one) net
      in
      let d = Derive.derive_exn ~wcet net in
      let g = d.Derive.graph in
      match snd (List_scheduler.auto ~n_procs g) with
      | None -> true
      | Some _ ->
        (* a feasible schedule exists: the necessary condition must hold *)
        Taskgraph.Analysis.necessary_condition g ~processors:n_procs = Ok ())

(* Randgen nets with sporadic servers, bursts and sparse to dense
   channels; positive WCETs, since the reference cannot schedule a
   zero-WCET job that has successors *)
let dense_params_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* n_periodic = int_range 2 8 in
    let* n_sporadic = int_range 0 3 in
    let* channel_density = oneofl [ 0.2; 0.5; 0.9 ] in
    let* max_burst = int_range 1 3 in
    let* scale = int_range 5 25 in
    return
      ( { Fppn_apps.Randgen.default_params with
          seed;
          n_periodic;
          n_sporadic;
          channel_density;
          max_burst;
        },
        scale ))

let prop_heap_matches_reference =
  qprop "heap list scheduler = quadratic reference (5 heuristics, M=1..4)"
    ~count:300 dense_params_gen (fun (params, scale) ->
      let net = Fppn_apps.Randgen.network params in
      let wcet =
        Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 scale)
          (Derive.const_wcet Rat.one) net
      in
      matches_reference (Derive.derive_exn ~wcet net).Derive.graph)

let () =
  Alcotest.run "sched"
    [
      ( "priority",
        [
          Alcotest.test_case "orders" `Quick test_heuristic_orders;
          Alcotest.test_case "b-level" `Quick test_blevel_priority;
          Alcotest.test_case "strings" `Quick test_heuristic_strings;
        ] );
      ( "static-schedule",
        [
          Alcotest.test_case "valid schedule" `Quick test_check_valid;
          Alcotest.test_case "violations" `Quick test_check_violations;
          Alcotest.test_case "arrival/deadline" `Quick test_check_arrival_deadline;
          Alcotest.test_case "make validation" `Quick test_make_validation;
        ] );
      ( "list-scheduler",
        [
          Alcotest.test_case "chain" `Quick test_list_scheduling_chain;
          Alcotest.test_case "parallelism" `Quick test_list_scheduling_parallelism;
          Alcotest.test_case "arrival respected" `Quick
            test_list_scheduling_respects_arrival;
          Alcotest.test_case "priority decides" `Quick
            test_list_scheduling_priority_decides;
          Alcotest.test_case "auto on fig1 (Fig. 4)" `Quick test_auto_fig1;
          Alcotest.test_case "cosched auto on a pool" `Quick
            test_cosched_auto_parallel_equals_sequential;
          Alcotest.test_case "auto on a pool" `Quick
            test_auto_parallel_equals_sequential;
          Alcotest.test_case "zero WCET on fig1" `Quick test_zero_wcet_fig1;
          Alcotest.test_case "built-in apps match the reference" `Quick
            test_reference_apps;
        ] );
      ( "exact",
        [
          Alcotest.test_case "chain optimum" `Quick test_exact_chain;
          Alcotest.test_case "fig1 optimum" `Quick test_exact_beats_or_matches_heuristics;
          Alcotest.test_case "proves infeasibility" `Quick test_exact_detects_infeasibility;
          Alcotest.test_case "node budget" `Quick test_exact_respects_budget;
          Alcotest.test_case "parallel fan-out" `Quick
            test_exact_parallel_same_optimum;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "never worse" `Quick test_optimizer_never_worse;
          Alcotest.test_case "repairs FIFO" `Quick test_optimizer_repairs_bad_heuristic;
          Alcotest.test_case "deterministic" `Quick test_optimizer_deterministic;
        ] );
      ( "properties",
        [
          prop_schedule_structurally_valid;
          prop_necessary_condition_is_necessary;
          prop_exact_dominates_heuristic;
          prop_heap_matches_reference;
        ] );
    ]

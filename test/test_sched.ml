module Rat = Rt_util.Rat
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job
module Derive = Taskgraph.Derive
module Priority = Sched.Priority
module Static_schedule = Sched.Static_schedule
module List_scheduler = Sched.List_scheduler

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
  Graph.of_succs jobs [| [ 1 ]; [ 2 ]; [] |]

(* --- priority heuristics ------------------------------------------------ *)

let test_heuristic_orders () =
  let jobs =
    [| mk_job 0 0 300 10; mk_job 1 0 100 10; mk_job 2 50 200 10 |]
  in
  let g = Graph.of_succs jobs [| []; []; [] |] in
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
  let g = Graph.of_succs jobs [| [] |] in
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
  let g = Graph.of_succs jobs [| []; [] |] in
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
  let g = Graph.of_succs jobs [| [] |] in
  let s = List_scheduler.schedule_with ~heuristic:Priority.Fifo_arrival ~n_procs:1 g in
  Alcotest.check rat "waits for arrival" (ms 100) (Static_schedule.start s 0)

let test_list_scheduling_priority_decides () =
  (* two ready jobs, one processor: the higher-priority one goes first *)
  let jobs = [| mk_job 0 0 400 50; mk_job 1 0 100 50 |] in
  let g = Graph.of_succs jobs [| []; [] |] in
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

(* --- integer ticks vs the rational scheduler ------------------------------ *)

(* Ranking and list scheduling as they ran on Rat.t keys, before both
   moved onto a task graph compiled to integer ticks: kept verbatim as
   the differential oracle of the tick code. *)
module Rat_ref = struct
  module Analysis = Analysis_ref

  let order g h =
    let n = Graph.n_jobs g in
    let key : int -> Rat.t =
      match h with
      | Priority.Alap_edf ->
        let times = Analysis.asap_alap g in
        fun i -> times.Analysis.alap.(i)
      | Priority.B_level ->
        let bl = Analysis.b_level g in
        fun i -> Rat.neg bl.(i)
      | Priority.Deadline_monotonic ->
        fun i ->
          let j = Graph.job g i in
          Rat.sub j.Job.deadline j.Job.arrival
      | Priority.Edf_nominal -> fun i -> (Graph.job g i).Job.deadline
      | Priority.Fifo_arrival -> fun i -> (Graph.job g i).Job.arrival
    in
    let keys = Array.init n key in
    let ids = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        let c = Rat.compare keys.(a) keys.(b) in
        if c <> 0 then c else Int.compare a b)
      ids;
    ids

  let rank g h =
    let ids = order g h in
    let r = Array.make (Array.length ids) 0 in
    Array.iteri (fun pos id -> r.(id) <- pos) ids;
    r

  let schedule ~rank ~n_procs g =
    Fppn_obs.Trace.with_span "sched.list" @@ fun () ->
    let n = Graph.n_jobs g in
    if Array.length rank <> n then
      invalid_arg "List_scheduler.schedule: rank array size mismatch";
    if n_procs <= 0 then invalid_arg "List_scheduler.schedule: no processors";
    let entries =
      Array.make n { Static_schedule.proc = 0; start = Rat.zero }
    in
    let arrival i = (Graph.job g i).Job.arrival in
    let finish_time = Array.make n Rat.zero in
    let missing_preds = Array.init n (fun i -> List.length (Graph.preds g i)) in
    let proc_free = Array.make n_procs Rat.zero in
    let by_time time a b =
      let c = Rat.compare (time a) (time b) in
      if c <> 0 then c else Int.compare a b
    in
    (* ready queue ordered by schedule priority *)
    let ready = Pqueue.create ~cmp:(fun a b -> Int.compare rank.(a) rank.(b)) in
    (* released jobs still waiting for their arrival, by (arrival, id) *)
    let pending = Pqueue.create ~cmp:(by_time arrival) in
    (* started jobs of positive WCET, by (finish, id) *)
    let running = Pqueue.create ~cmp:(by_time (Array.get finish_time)) in
    (* started zero-WCET jobs per processor whose completion is not yet
       processed (see [settle]) *)
    let held = Array.make n_procs [] in
    let release now i =
      (* all predecessors done; becomes ready at max(now, A_i) *)
      if Rat.(arrival i <= now) then Pqueue.push ready i
      else Pqueue.push pending i
    in
    let complete now i =
      List.iter
        (fun s ->
          missing_preds.(s) <- missing_preds.(s) - 1;
          if missing_preds.(s) = 0 then release now s)
        (Graph.succs g i)
    in
    Array.iteri (fun i k -> if k = 0 then release Rat.zero i) missing_preds;
    let scheduled_count = ref 0 in
    let rec pop_due q time now f =
      match Pqueue.peek q with
      | Some i when Rat.(time i <= now) ->
        ignore (Pqueue.pop q);
        f i;
        pop_due q time now f
      | _ -> ()
    in
    let rec dispatch now =
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
          incr scheduled_count;
          let c = (Graph.job g i).Job.wcet in
          if Rat.sign c = 0 then held.(p) <- i :: held.(p)
          else begin
            let e = Rat.add now c in
            finish_time.(i) <- e;
            proc_free.(p) <- e;
            Pqueue.push running i;
            (* the static order breaks start ties by id, so zero-WCET jobs
               held here with larger ids move behind [i] *)
            List.iter
              (fun z ->
                if z > i then
                  entries.(z) <- { Static_schedule.proc = p; start = e })
              held.(p)
          end;
          dispatch now
    in
    (* Zero-WCET jobs complete one at a time, lowest id first, each after a
       dispatch round at the same instant: a job placed later at this
       instant then has a larger id than every completed one (edges point
       forward in id), and a still-held one can move behind it. *)
    let rec settle now =
      dispatch now;
      let next = ref (-1) in
      Array.iter
        (List.iter (fun z ->
             if
               Rat.equal entries.(z).Static_schedule.start now
               && (!next < 0 || z < !next)
             then next := z))
        held;
      if !next >= 0 then begin
        let z = !next in
        let p = entries.(z).Static_schedule.proc in
        held.(p) <- List.filter (( <> ) z) held.(p);
        complete now z;
        settle now
      end
    in
    let next_event () =
      match
        ( Option.map (Array.get finish_time) (Pqueue.peek running),
          Option.map arrival (Pqueue.peek pending) )
      with
      | Some a, Some b -> Some (Rat.min a b)
      | t, None | None, t -> t
    in
    let rec run now =
      (* completions at [now] release successors, then due arrivals join
         the ready queue *)
      pop_due running (Array.get finish_time) now (complete now);
      pop_due pending arrival now (Pqueue.push ready);
      settle now;
      match next_event () with None -> () | Some t -> run t
    in
    run Rat.zero;
    assert (!scheduled_count = n || n = 0);
    Static_schedule.make ~n_procs entries

  (* List_scheduler.auto's attempts and choice on the rational code *)
  let auto ~n_procs g =
    let attempts =
      List.map
        (fun h ->
          let s = schedule ~rank:(rank g h) ~n_procs g in
          (h, s, Static_schedule.is_feasible g s, Static_schedule.makespan g s))
        Priority.all
    in
    (attempts, List.find_opt (fun (_, _, feasible, _) -> feasible) attempts)
end

let overflows f =
  match f () with _ -> false | exception Rat.Overflow -> true

(* The no-grid rule, stated apart from Tick_graph: the common
   denominator D of every time, the ticks of every deadline, and the
   horizon max(0, max A_i) + Σ C_i in ticks must fit in an int. *)
let has_grid g =
  not
    (overflows (fun () ->
         let jobs = Array.to_list (Graph.jobs g) in
         let times j = [ j.Job.arrival; j.Job.deadline; j.Job.wcet ] in
         let d =
           List.fold_left
             (fun acc j ->
               List.fold_left (fun acc r -> Rat.lcm_int acc (Rat.den r)) acc (times j))
             1 jobs
         in
         let fold f = List.fold_left f Rat.zero jobs in
         let horizon =
           Rat.add
             (fold (fun acc j -> Rat.max acc j.Job.arrival))
             (fold (fun acc j -> Rat.add acc j.Job.wcet))
         in
         let latest = fold (fun acc j -> Rat.max acc j.Job.deadline) in
         List.iter
           (fun r -> ignore (Rat.to_int_exn (Rat.mul r (Rat.of_int d))))
           [ horizon; latest ]))

let same_attempts g (ref_attempts, ref_best) (attempts, best) =
  let same (h, s, feasible, makespan) (a : List_scheduler.attempt) =
    h = a.List_scheduler.heuristic
    && feasible = a.List_scheduler.feasible
    && Rat.equal makespan a.List_scheduler.makespan
    && same_schedule g s a.List_scheduler.schedule
  in
  List.length ref_attempts = List.length attempts
  && List.for_all2 same ref_attempts attempts
  &&
  match (ref_best, best) with
  | None, None -> true
  | Some r, Some a -> same r a
  | _ -> false

(* Ranks, every heuristic's schedule on M = 1..4 and auto's attempts and
   choice equal the rational oracle's where the graph has an integer
   grid; where it has none, every entry point raises Rat.Overflow. *)
let matches_rational g =
  let m_range = [ 1; 2; 3; 4 ] in
  if has_grid g then
    List.for_all
      (fun h ->
        let rank = Priority.rank g h in
        rank = Rat_ref.rank g h
        && Priority.order g h = Rat_ref.order g h
        && List.for_all
             (fun n_procs ->
               same_schedule g
                 (List_scheduler.schedule ~rank ~n_procs g)
                 (Rat_ref.schedule ~rank ~n_procs g))
             m_range)
      Priority.all
    && List.for_all
         (fun n_procs ->
           same_attempts g (Rat_ref.auto ~n_procs g)
             (List_scheduler.auto ~n_procs g))
         m_range
  else
    let rank = Array.init (Graph.n_jobs g) Fun.id in
    List.for_all
      (fun h -> overflows (fun () -> Priority.rank g h))
      Priority.all
    && List.for_all
         (fun n_procs ->
           overflows (fun () -> List_scheduler.schedule ~rank ~n_procs g)
           && overflows (fun () -> List_scheduler.auto ~n_procs g))
         m_range

let scales = [| Rat.make 1 7; Rat.make 3 8; Rat.make 1 10; Rat.make 1 1000 |]

(* Randgen nets whose processes draw their WCET scale from [scales]
   (mixed denominators) and about one in three costs nothing; in one
   case in five every WCET is an integer and one process's is
   max_int / k, so that some horizons leave the int range while every
   single time fits *)
let tick_case_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* n_periodic = int_range 2 7 in
    let* n_sporadic = int_range 0 2 in
    let* huge = frequency [ (4, return 0); (1, int_range 1 4) ] in
    return (seed, n_periodic, n_sporadic, huge))

let tick_case_graph (seed, n_periodic, n_sporadic, huge) =
  let params =
    { Fppn_apps.Randgen.default_params with seed; n_periodic; n_sporadic }
  in
  let net = Fppn_apps.Randgen.network params in
  let scaled p =
    Fppn_apps.Randgen.wcet ~scale:scales.(Hashtbl.hash (seed, p) mod 4)
      (Derive.const_wcet Rat.one) net p
  in
  let wcet p =
    if huge > 0 && p = Fppn_apps.Randgen.periodic_name 0 then
      Rat.of_int (max_int / huge)
    else if Hashtbl.hash (p, seed) mod 3 = 0 then Rat.zero
    else if huge > 0 then Rat.of_int (Rat.ceil (scaled p))
    else scaled p
  in
  (Derive.derive_exn ~wcet net).Derive.graph

(* 10^-16 ms: the grid is past Timebase's 2^55 cap, but still in an int *)
let test_tiny_wcet_grid () =
  let net = Fppn_apps.Fig1.network () in
  let tiny = Rat.make 1 10_000_000_000_000_000 in
  let name = Fppn.Process.name (Fppn.Network.processes net).(0) in
  let wcet p = if p = name then tiny else Fppn_apps.Fig1.wcet p in
  let g = (Derive.derive_exn ~wcet net).Derive.graph in
  let times =
    List.concat_map
      (fun j -> [ j.Job.arrival; j.Job.deadline; j.Job.wcet ])
      (Array.to_list (Graph.jobs g))
  in
  Alcotest.(check bool) "ticks past the engine's 2^55 cap" true
    (match Rt_util.Timebase.create times with
    | None -> true
    | Some tb -> not (List.for_all (Rt_util.Timebase.representable tb) times));
  Alcotest.(check bool) "has an integer grid" true (has_grid g);
  Alcotest.(check bool) "equals the rational oracle" true (matches_rational g)

(* Graphs the rational code scheduled but no int grid holds: four
   independent jobs whose coprime WCETs put D near 1.8·10^19 (makespan
   1/65479), and a 10^-17 ms WCET beside a 200 ms deadline, whose ticks
   are 2·10^19 (the no_grid.fppn of @gate; makespan 1) *)
let test_no_grid_overflow () =
  let independent wcets deadlines =
    Graph.of_succs
      (Array.mapi
         (fun id (c, d) -> { (mk_job id 0 d 0) with Job.wcet = c })
         (Array.combine wcets deadlines))
      (Array.make (Array.length wcets) [])
  in
  List.iter
    (fun (label, g, n_procs, makespan) ->
      let _, best = Rat_ref.auto ~n_procs g in
      Alcotest.check rat (label ^ ": the rational makespan") makespan
        (match best with Some (_, _, _, m) -> m | None -> Rat.zero);
      Alcotest.(check bool) (label ^ ": no grid") false (has_grid g);
      Alcotest.(check bool) (label ^ ": auto raises Rat.Overflow") true
        (overflows (fun () -> List_scheduler.auto ~n_procs g));
      Alcotest.(check bool) (label ^ ": schedule raises Rat.Overflow") true
        (overflows (fun () ->
             List_scheduler.schedule
               ~rank:(Array.init (Graph.n_jobs g) Fun.id)
               ~n_procs g)))
    [
      ( "coprime WCETs",
        independent
          (Array.map (Rat.make 1) [| 65521; 65519; 65497; 65479 |])
          [| 100; 100; 100; 100 |],
        4,
        Rat.make 1 65479 );
      ( "10^-17 ms WCET",
        independent
          [| Rat.make 1 100_000_000_000_000_000; Rat.one |]
          [| 40; 200 |],
        2,
        Rat.one );
    ]

let test_rank_must_be_permutation () =
  let g = chain3 () in
  List.iter
    (fun rank ->
      Alcotest.(check bool)
        (Printf.sprintf "rank [%s] refused"
           (String.concat ";" (Array.to_list (Array.map string_of_int rank))))
        true
        (match List_scheduler.schedule ~rank ~n_procs:2 g with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ [| 0; 0; 1 |]; [| 2; 1; 2 |]; [| 0; 1; 3 |]; [| -1; 0; 1 |]; [| 0; 1 |] ]

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
  let cp, _ = Analysis_ref.critical_path g in
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
  let g = Graph.of_succs jobs [| [ 1 ]; [] |] in
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
        Taskgraph.Analysis.(necessary_condition (analyse g) ~processors:n_procs)
        = Ok ())

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

let prop_ticks_match_rational =
  qprop "tick ranks, schedules and auto = the rational oracle (M=1..4)"
    ~count:200 tick_case_gen (fun case -> matches_rational (tick_case_graph case))

(* A list schedule of a Randgen net with up to three entries moved: a
   start shifted by a multiple of a quarter WCET (kept non-negative), or
   a job put on another processor.  Built with [Static_schedule.make], so
   arrival, deadline, precedence and overlap violations all occur. *)
let perturbed_gen =
  QCheck2.Gen.(
    let* params, scale = dense_params_gen in
    let* n_procs = int_range 1 4 in
    let* heuristic = oneofl Priority.all in
    let* moves =
      list_size (int_range 0 3) (triple nat (int_bound 3) (int_range (-6) 6))
    in
    return (params, scale, n_procs, heuristic, moves))

let perturbed_schedule (params, scale, n_procs, heuristic, moves) =
  let net = Fppn_apps.Randgen.network params in
  let wcet =
    Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 scale) (Derive.const_wcet Rat.one) net
  in
  let g = (Derive.derive_exn ~wcet net).Derive.graph in
  let s = List_scheduler.schedule_with ~heuristic ~n_procs g in
  let n = Graph.n_jobs g in
  let entries = Array.init n (Static_schedule.entry s) in
  List.iter
    (fun (j, p, delta) ->
      let i = j mod n in
      let e = entries.(i) in
      entries.(i) <-
        (if delta = 0 then { e with Static_schedule.proc = p mod n_procs }
         else
           let shift = Rat.mul (Rat.make delta 4) (Graph.job g i).Job.wcet in
           { e with Static_schedule.start = Rat.max Rat.zero (Rat.add e.start shift) }))
    moves;
  (g, Static_schedule.make ~n_procs entries)

let prop_is_feasible_is_check =
  qprop "is_feasible g s = (check g s = [])" ~count:300 perturbed_gen
    (fun case ->
      let g, s = perturbed_schedule case in
      Static_schedule.is_feasible g s = (Static_schedule.check g s = []))

(* the generator above reaches feasible schedules and every kind of
   violation, so the property compares both answers *)
let test_perturbed_cover () =
  let kinds = Hashtbl.create 8 in
  List.iter
    (fun case ->
      let g, s = perturbed_schedule case in
      match Static_schedule.check g s with
      | [] -> Hashtbl.replace kinds "feasible" ()
      | vs ->
        List.iter
          (fun v ->
            Hashtbl.replace kinds
              (match v with
              | Static_schedule.Arrival _ -> "arrival"
              | Deadline _ -> "deadline"
              | Precedence _ -> "precedence"
              | Overlap _ -> "overlap")
              ())
          vs)
    (QCheck2.Gen.generate ~rand:(Random.State.make [| 1 |]) ~n:300 perturbed_gen);
  List.iter
    (fun k -> Alcotest.(check bool) k true (Hashtbl.mem kinds k))
    [ "feasible"; "arrival"; "deadline"; "precedence"; "overlap" ]

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
          Alcotest.test_case "10^-16 ms WCET on an int grid" `Quick
            test_tiny_wcet_grid;
          Alcotest.test_case "no int grid raises Rat.Overflow" `Quick
            test_no_grid_overflow;
          Alcotest.test_case "rank must be a permutation" `Quick
            test_rank_must_be_permutation;
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
          prop_ticks_match_rational;
          prop_is_feasible_is_check;
          Alcotest.test_case "perturbed schedules cover every verdict" `Quick
            test_perturbed_cover;
        ] );
    ]

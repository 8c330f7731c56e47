(* Differential tests for multi-application co-scheduling (Cosched).

   The load-bearing property: co-scheduling a single application — under
   either variant — is bit-identical to List_scheduler on the same
   graph, so every existing single-app guarantee transfers.  On random
   2-app instances the combined schedule must stay structurally valid,
   per-app slices must agree with the combined schedule, slot
   reservations must be disjoint, the fair makespan must respect the
   Exact.solve lower bound, and pooled evaluation must equal the
   sequential one. *)

module Rat = Rt_util.Rat
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job
module Derive = Taskgraph.Derive
module Randgen = Fppn_apps.Randgen
module Priority = Sched.Priority
module Static_schedule = Sched.Static_schedule
module List_scheduler = Sched.List_scheduler
module Cosched = Sched.Cosched

let ms = Rat.of_int

let entries_equal a b =
  Static_schedule.n_jobs a = Static_schedule.n_jobs b
  && Static_schedule.n_procs a = Static_schedule.n_procs b
  && List.for_all
       (fun i ->
         Static_schedule.proc a i = Static_schedule.proc b i
         && Rat.equal (Static_schedule.start a i) (Static_schedule.start b i))
       (List.init (Static_schedule.n_jobs a) Fun.id)

let app ?(priority = 0) name graph =
  { Cosched.app_name = name; app_priority = priority; graph }

let fig1_graph () =
  (Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet (Fppn_apps.Fig1.network ()))
    .Derive.graph

let automotive_graph () =
  (Derive.derive_exn ~wcet:Fppn_apps.Automotive.wcet
     (Fppn_apps.Automotive.network ()))
    .Derive.graph

let random_graph seed =
  let params = { Randgen.default_params with seed; n_periodic = 3; n_sporadic = 1 } in
  let net = Randgen.network params in
  let wcet = Randgen.wcet ~scale:(Rat.make 1 8) (Derive.const_wcet Rat.one) net in
  (Derive.derive_exn ~wcet net).Derive.graph

(* --- disjoint union ----------------------------------------------------- *)

let mk_job id ?(proc = 0) ?(name = "P") a d c =
  {
    Job.id;
    proc;
    proc_name = name;
    k = 1;
    arrival = ms a;
    deadline = ms d;
    wcet = ms c;
    is_server = false;
  }

let test_disjoint_union () =
  let ga =
    Graph.of_succs
      [| mk_job 0 ~name:"A" 0 100 10; mk_job 1 ~proc:1 ~name:"B" 0 100 10 |]
      [| [ 1 ]; [] |]
  in
  let gb = Graph.of_succs [| mk_job 0 ~name:"C" 0 50 5 |] [| [] |] in
  let u, owner = Graph.disjoint_union ~prefixes:[| "x/"; "y/" |] [ ga; gb ] in
  Alcotest.(check int) "job count" 3 (Graph.n_jobs u);
  Alcotest.(check (list (pair int int))) "owner map"
    [ (0, 0); (0, 1); (1, 0) ]
    (Array.to_list owner);
  Alcotest.(check (list (pair int int))) "edges stay within members"
    [ (0, 1) ] (Graph.edges u);
  Alcotest.(check string) "prefixed name" "y/C" (Graph.job u 2).Job.proc_name;
  (* process indices offset so jobs_of_process stays disjoint *)
  Alcotest.(check int) "second member's process offset" 2 (Graph.job u 2).Job.proc;
  Alcotest.(check bool) "empty list rejected" true
    (try ignore (Graph.disjoint_union []); false
     with Invalid_argument _ -> true)

(* --- single application: bit-identical to List_scheduler ---------------- *)

let test_single_app_identity () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun heuristic ->
          List.iter
            (fun n_procs ->
              let direct = List_scheduler.schedule ~rank:(Priority.rank g heuristic) ~n_procs g in
              List.iter
                (fun variant ->
                  let r =
                    Cosched.schedule_with ~heuristic ~variant ~n_procs
                      [ app name g ]
                  in
                  let label =
                    Printf.sprintf "%s/%s/M=%d/%s" name
                      (Priority.to_string heuristic) n_procs
                      (Cosched.variant_to_string variant)
                  in
                  Alcotest.(check bool)
                    (label ^ ": combined identical") true
                    (entries_equal direct r.Cosched.combined);
                  let rep = List.hd r.Cosched.reports in
                  Alcotest.(check bool)
                    (label ^ ": slice identical") true
                    (entries_equal direct rep.Cosched.schedule);
                  Alcotest.(check bool)
                    (label ^ ": same feasibility") true
                    (rep.Cosched.feasible = Static_schedule.is_feasible g direct))
                [ Cosched.Fair; Cosched.Slots ])
            [ 1; 2; 3 ])
        Priority.all)
    [
      ("fig1", fig1_graph ());
      ("automotive", automotive_graph ());
      ("random", random_graph 11);
    ]

let test_single_app_auto_identity () =
  let g = fig1_graph () in
  let _, direct = List_scheduler.auto ~n_procs:2 g in
  let _, co = Cosched.auto ~variant:Cosched.Fair ~n_procs:2 [ app "fig1" g ] in
  match (direct, co) with
  | Some d, Some c ->
    Alcotest.(check string) "same chosen heuristic"
      (Priority.to_string d.List_scheduler.heuristic)
      (Priority.to_string c.Cosched.heuristic);
    Alcotest.(check bool) "same chosen schedule" true
      (entries_equal d.List_scheduler.schedule c.Cosched.result.Cosched.combined)
  | _ -> Alcotest.fail "fig1 on M=2 must be feasible both ways"

(* --- fair variant semantics --------------------------------------------- *)

let one_job_graph name =
  Graph.of_succs [| mk_job 0 ~name 0 100 25 |] [| [] |]

let test_fair_priority_dominates () =
  (* two identical single-job apps contending for one processor: the
     higher-priority one starts first, whatever the input order *)
  let a = app ~priority:1 "late" (one_job_graph "L") in
  let b = app ~priority:0 "early" (one_job_graph "E") in
  let r = Cosched.schedule_with ~variant:Cosched.Fair ~n_procs:1 [ a; b ] in
  let find n =
    List.find (fun (x : Cosched.app_report) -> x.Cosched.name = n)
      r.Cosched.reports
  in
  Alcotest.(check bool) "high priority starts at 0" true
    (Rat.equal Rat.zero (Static_schedule.start (find "early").Cosched.schedule 0));
  Alcotest.(check bool) "low priority starts after" true
    (Rat.equal (ms 25) (Static_schedule.start (find "late").Cosched.schedule 0))

let test_slots_validation () =
  Alcotest.(check bool) "more apps than processors rejected" true
    (try
       ignore
         (Cosched.schedule_with ~variant:Cosched.Slots ~n_procs:1
            [ app "a" (one_job_graph "A"); app "b" (one_job_graph "B") ]);
       false
     with Invalid_argument _ -> true)

(* --- admission hook ------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_admit_rejects_on_load () =
  (* fig1 alone needs 2 processors (Prop. 3.1): joining anything on M=1
     is rejected before any schedule is attempted *)
  match
    Cosched.admit ~n_procs:1 ~admitted:[ app "fig1" (fig1_graph ()) ]
      (app ~priority:1 "auto" (automotive_graph ()))
  with
  | Cosched.Admitted _ -> Alcotest.fail "must reject on the load bound"
  | Cosched.Rejected { app = name; reason } ->
    Alcotest.(check string) "candidate named" "auto" name;
    Alcotest.(check bool) "reason cites Prop. 3.1" true
      (contains ~sub:"Prop. 3.1" reason)

let test_admit_accepts_when_feasible () =
  match
    Cosched.admit ~variant:Cosched.Slots ~n_procs:3
      ~admitted:[ app "fig1" (fig1_graph ()) ]
      (app ~priority:1 "auto" (automotive_graph ()))
  with
  | Cosched.Admitted r ->
    Alcotest.(check int) "both applications scheduled" 2
      (List.length r.Cosched.reports);
    Alcotest.(check bool) "all feasible" true r.Cosched.feasible
  | Cosched.Rejected { reason; _ } ->
    Alcotest.fail ("fig1+automotive fits on 3 slots, got: " ^ reason)

let test_admit_rejects_without_slot () =
  match
    Cosched.admit ~variant:Cosched.Slots ~n_procs:2
      ~admitted:[ app "a" (one_job_graph "A"); app "b" (one_job_graph "B") ]
      (app ~priority:2 "c" (one_job_graph "C"))
  with
  | Cosched.Admitted _ -> Alcotest.fail "no third slot exists"
  | Cosched.Rejected { reason; _ } ->
    Alcotest.(check bool) "reason cites the slot shortage" true
      (contains ~sub:"slot" reason)

(* --- JSON sections roundtrip -------------------------------------------- *)

let test_json_roundtrip () =
  let r =
    Cosched.schedule_with ~variant:Cosched.Slots ~n_procs:3
      [ app "fig1" (fig1_graph ()); app ~priority:1 "auto" (automotive_graph ()) ]
  in
  let json = Cosched.to_json r in
  match Sched.Schedule_io.sections_of_json json with
  | Error e -> Alcotest.fail e
  | Ok (variant, n_procs, sections) ->
    Alcotest.(check string) "variant" "slots" variant;
    Alcotest.(check int) "procs" 3 n_procs;
    Alcotest.(check (list string)) "app names" [ "fig1"; "auto" ]
      (List.map (fun s -> s.Sched.Schedule_io.sec_name) sections);
    Alcotest.(check string) "re-serialization is identical" json
      (Sched.Schedule_io.sections_to_json ~variant ~n_procs sections)

let test_json_rejects_garbage () =
  Alcotest.(check bool) "malformed json" true
    (Result.is_error (Sched.Schedule_io.sections_of_json "{"));
  Alcotest.(check bool) "wrong schema" true
    (Result.is_error (Sched.Schedule_io.sections_of_json "{\"schema\":\"nope\"}"))

(* --- QCheck: random 2-app instances -------------------------------------- *)

let qprop name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* Tiny applications (<= 8 jobs): 1-2 periodic processes over periods
   whose lcm stays small, optionally joined by a channel. *)
let tiny_app_gen =
  QCheck2.Gen.(
    let* n = int_range 1 2 in
    let* first = int_range 0 2 in
    let* second = int_range 0 2 in
    let* chan = bool in
    return (n, first, second, chan))

let build_tiny label (n, first, second, chan) =
  let all = [| 50; 100; 200 |] in
  let periods =
    if n = 1 then [| all.(first) |] else [| all.(first); all.(second) |]
  in
  let chans =
    if n = 2 && chan then
      [ { Randgen.cw = 0; cr = 1; fifo = true; rev_fp = false; no_fp = false } ]
    else []
  in
  let spec = { Randgen.label; periods; chans; sporadics = [] } in
  let net = Randgen.build_exn spec in
  let wcet = Randgen.wcet ~scale:(Rat.make 1 4) (Derive.const_wcet Rat.one) net in
  (Derive.derive_exn ~wcet net).Derive.graph

let pair_gen =
  QCheck2.Gen.(
    let* ta = tiny_app_gen in
    let* tb = tiny_app_gen in
    let* n_procs = int_range 2 3 in
    let* flip = bool in
    return (ta, tb, n_procs, flip))

let apps_of (ta, tb, _, flip) =
  [
    app ~priority:(if flip then 1 else 0) "a" (build_tiny "appA" ta);
    app ~priority:(if flip then 0 else 1) "b" (build_tiny "appB" tb);
  ]

let slice_matches_combined (r : Cosched.t) =
  Array.for_all Fun.id
    (Array.mapi
       (fun gid (ai, li) ->
         let rep = List.nth r.Cosched.reports ai in
         let e = Static_schedule.entry r.Cosched.combined gid in
         Static_schedule.proc rep.Cosched.schedule li = e.Static_schedule.proc
         && Rat.equal
              (Static_schedule.start rep.Cosched.schedule li)
              e.Static_schedule.start)
       r.Cosched.owner)

let prop_cosched_pairs =
  qprop "2-app co-schedules: structure, slices, slots, exact bound" pair_gen
    (fun ((_, _, n_procs, _) as case) ->
      let apps = apps_of case in
      List.for_all
        (fun variant ->
          let r = Cosched.schedule_with ~variant ~n_procs apps in
          (* arrival/precedence/mutual-exclusion hold by construction *)
          List.for_all
            (function
              | Static_schedule.Deadline _ -> true
              | Static_schedule.Arrival _ | Static_schedule.Precedence _
              | Static_schedule.Overlap _ -> false)
            (Static_schedule.check r.Cosched.union r.Cosched.combined)
          && slice_matches_combined r
          &&
          match variant with
          | Cosched.Fair ->
            List.for_all
              (fun (rep : Cosched.app_report) -> rep.Cosched.slots = [])
              r.Cosched.reports
          | Cosched.Slots ->
            let all =
              List.concat_map
                (fun (rep : Cosched.app_report) -> rep.Cosched.slots)
                r.Cosched.reports
            in
            List.length all = List.length (List.sort_uniq Int.compare all)
            && List.for_all
                 (fun (rep : Cosched.app_report) ->
                   List.for_all
                     (fun i ->
                       List.mem
                         (Static_schedule.proc rep.Cosched.schedule i)
                         rep.Cosched.slots)
                     (List.init (Static_schedule.n_jobs rep.Cosched.schedule)
                        Fun.id))
                 r.Cosched.reports)
        [ Cosched.Fair; Cosched.Slots ]
      &&
      (* the fair makespan respects the Exact.solve lower bound *)
      let r = Cosched.schedule_with ~variant:Cosched.Fair ~n_procs apps in
      if Graph.n_jobs r.Cosched.union > 12 then true
      else
        let ex = Sched.Exact.solve ~node_budget:200_000 ~n_procs r.Cosched.union in
        match (ex.Sched.Exact.makespan, ex.Sched.Exact.optimal) with
        | Some opt, true -> Rat.(r.Cosched.makespan >= opt)
        | None, true -> not r.Cosched.feasible
        | _, false -> true)

let prop_cosched_pool_equality =
  qprop "2-app auto: jobs=4 equals jobs=1" pair_gen
    (fun ((_, _, n_procs, _) as case) ->
      let apps = apps_of case in
      Rt_util.Pool.with_pool ~jobs:4 (fun pool ->
          List.for_all
            (fun variant ->
              let seq_attempts, seq_best = Cosched.auto ~variant ~n_procs apps in
              let par_attempts, par_best =
                Cosched.auto ~pool ~variant ~n_procs apps
              in
              let attempt_equal (a : Cosched.attempt) (b : Cosched.attempt) =
                a.Cosched.heuristic = b.Cosched.heuristic
                && String.equal
                     (Cosched.to_json a.Cosched.result)
                     (Cosched.to_json b.Cosched.result)
              in
              List.length seq_attempts = List.length par_attempts
              && List.for_all2 attempt_equal seq_attempts par_attempts
              &&
              match (seq_best, par_best) with
              | None, None -> true
              | Some a, Some b -> attempt_equal a b
              | _ -> false)
            [ Cosched.Fair; Cosched.Slots ]))

let () =
  Alcotest.run "cosched"
    [
      ( "union",
        [ Alcotest.test_case "disjoint union" `Quick test_disjoint_union ] );
      ( "differential",
        [
          Alcotest.test_case "single app bit-identical" `Quick
            test_single_app_identity;
          Alcotest.test_case "single app auto" `Quick
            test_single_app_auto_identity;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "fair priority dominates" `Quick
            test_fair_priority_dominates;
          Alcotest.test_case "slots validation" `Quick test_slots_validation;
        ] );
      ( "admission",
        [
          Alcotest.test_case "rejects on load bound" `Quick
            test_admit_rejects_on_load;
          Alcotest.test_case "accepts a feasible pair" `Quick
            test_admit_accepts_when_feasible;
          Alcotest.test_case "rejects without a slot" `Quick
            test_admit_rejects_without_slot;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "properties", [ prop_cosched_pairs; prop_cosched_pool_equality ] );
    ]

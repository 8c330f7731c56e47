(* The reproduction report behind EXPERIMENTS.md.

   Regenerates every quantitative artefact of the paper's evaluation
   (Figs. 1, 3, 4 — the running example; Figs. 5, 6 and the Sec. V-A
   numbers — the FFT streaming benchmark; Fig. 7 and the Sec. V-B
   numbers — the avionics FMS), the determinism checks behind
   Props. 2.1/4.1, plus the ablations called out in DESIGN.md; then runs
   Bechamel micro-benchmarks of every pipeline stage.  The wall-clock
   rows are informational: the performance gates are the deterministic
   cost pins of test/test_costs.ml and the perfbench/ workloads.

   Every section renders into its own buffer, so independent sections
   are computed concurrently on a Rt_util.Pool of domains (--jobs N,
   capped at the recommended domain count) and printed in their fixed
   order; the timing-sensitive sections (the transitive-reduction
   ablation and the Bechamel micro-benchmarks) stay sequential.

   The printed "paper" column quotes the published value; "measured" is
   what this reproduction obtains.  Absolute times differ from the
   MPPA-256/i7 testbeds; the comparisons of interest are the shapes
   (who wins, where the load crosses 1.0, which mappings miss
   deadlines). *)

module Rat = Rt_util.Rat
module Pool = Rt_util.Pool
module Table = Rt_util.Table
module Gantt = Rt_util.Gantt
module V = Fppn.Value
module Network = Fppn.Network
module Semantics = Fppn.Semantics
module Derive = Taskgraph.Derive
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job
module Analysis = Taskgraph.Analysis
module Priority = Sched.Priority
module List_scheduler = Sched.List_scheduler
module Static_schedule = Sched.Static_schedule
module Engine = Runtime.Engine
module Exec_time = Runtime.Exec_time
module Exec_trace = Runtime.Exec_trace
module Platform = Runtime.Platform
module Preemptive = Runtime.Preemptive
module Translate = Timedauto.Translate

let ms = Rat.of_int

let section buf title =
  Printf.bprintf buf "\n%s\n%s\n%s\n" (String.make 74 '=') title
    (String.make 74 '=')

let subsection buf title = Printf.bprintf buf "\n--- %s ---\n" title

let bline buf s =
  Buffer.add_string buf s;
  Buffer.add_char buf '\n'

let table buf ?aligns ~header rows =
  Buffer.add_string buf (Table.render ?aligns ~header rows)

let gantt buf ~width ~t_min ~t_max rows =
  Buffer.add_string buf (Gantt.render ~width ~t_min ~t_max rows)

let fstr f = Printf.sprintf "%.3f" f

let schedule_or_fallback ?(heuristic = Priority.Alap_edf) ~n_procs g =
  match snd (List_scheduler.auto ~n_procs g) with
  | Some a -> (a.List_scheduler.schedule, true)
  | None -> (List_scheduler.schedule_with ~heuristic ~n_procs g, false)

(* ------------------------------------------------------------------ *)
(* E1: Fig. 1 network -> Fig. 3 task graph                              *)
(* ------------------------------------------------------------------ *)

let e1_fig3 buf =
  section buf "E1  Task-graph derivation: Fig. 1 network -> Fig. 3 task graph";
  let net = Fppn_apps.Fig1.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet net in
  let g = d.Derive.graph in
  subsection buf "derived jobs (A_i, D_i, C_i) — compare with Fig. 3";
  table buf
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left ]
    ~header:[ "job"; "A_i"; "D_i"; "C_i"; "kind" ]
    (Array.to_list
       (Array.map
          (fun j ->
            [
              Job.label j;
              Rat.to_string j.Job.arrival;
              Rat.to_string j.Job.deadline;
              Rat.to_string j.Job.wcet;
              (if j.Job.is_server then "server (sporadic)" else "periodic");
            ])
          (Graph.jobs g)));
  subsection buf "precedence edges after transitive reduction";
  List.iter
    (fun (u, v) ->
      Printf.bprintf buf "  %s -> %s\n"
        (Job.label (Graph.job g u))
        (Job.label (Graph.job g v)))
    (Graph.edges g);
  subsection buf "summary (paper vs measured)";
  let redundant_removed =
    let find lbl =
      let rec scan i =
        if Job.label (Graph.job g i) = lbl then i else scan (i + 1)
      in
      scan 0
    in
    not (Graph.has_edge g (find "InputA[1]") (find "NormA[1]"))
  in
  table buf
    ~header:[ "quantity"; "paper"; "measured" ]
    [
      [ "hyperperiod H"; "200 ms"; Rat.to_string d.Derive.hyperperiod ^ " ms" ];
      [ "jobs (m_p * H/T_p per process)"; "10"; string_of_int (Graph.n_jobs g) ];
      [ "redundant InputA->NormA edge removed"; "yes";
        (if redundant_removed then "yes" else "NO") ];
      [ "edges before reduction"; "-"; string_of_int d.Derive.raw_edges ];
      [ "edges after reduction"; "-"; string_of_int (Graph.n_edges g) ];
    ]

(* ------------------------------------------------------------------ *)
(* E2: Fig. 4 static schedule on two processors                         *)
(* ------------------------------------------------------------------ *)

let e2_fig4 pool buf =
  section buf "E2  Static schedule for the Fig. 3 task graph on M=2 (Fig. 4)";
  let net = Fppn_apps.Fig1.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet net in
  let g = d.Derive.graph in
  let attempts, best = List_scheduler.auto ~pool ~n_procs:2 g in
  List.iter
    (fun (a : List_scheduler.attempt) ->
      Printf.bprintf buf "  %-20s feasible=%-5b makespan=%s ms\n"
        (Priority.to_string a.List_scheduler.heuristic)
        a.List_scheduler.feasible
        (Rat.to_string a.List_scheduler.makespan))
    attempts;
  match best with
  | None -> bline buf "  !! no feasible schedule found (unexpected)"
  | Some a ->
    let s = a.List_scheduler.schedule in
    subsection buf
      (Printf.sprintf "chosen schedule (%s) — one 200 ms frame, as Fig. 4"
         (Priority.to_string a.List_scheduler.heuristic));
    gantt buf ~width:66 ~t_min:0.0 ~t_max:200.0
      (Static_schedule.to_gantt_rows g s);
    Printf.bprintf buf "  feasible: %b; makespan %s ms (frame 200 ms)\n"
      (Static_schedule.is_feasible g s)
      (Rat.to_string (Static_schedule.makespan g s))

(* ------------------------------------------------------------------ *)
(* E3: FFT streaming benchmark (Fig. 5, Fig. 6, Sec. V-A numbers)       *)
(* ------------------------------------------------------------------ *)

let e3_fft pool buf =
  section buf "E3  FFT streaming benchmark (Figs. 5-6, Sec. V-A)";
  let p = Fppn_apps.Fft.default_params in
  let net = Fppn_apps.Fft.network p in
  let d = Derive.derive_exn ~wcet:(Fppn_apps.Fft.wcet_map p) net in
  let g = d.Derive.graph in
  let load = (Analysis.analyse g).load in
  (* paper trick: model the arrival-management overhead as an extra job
     with a precedence edge directed to the generator *)
  let net_oh = Fppn_apps.Fft.network_with_overhead_job p in
  let d_oh =
    Derive.derive_exn
      ~wcet:(Fppn_apps.Fft.wcet_map_with_overhead p ~overhead:(ms 41))
      net_oh
  in
  let load_oh = (Analysis.analyse d_oh.Derive.graph).load in
  let overhead =
    { Platform.first_frame = ms 41; steady_frame = ms 20; per_access = Rat.zero }
  in
  let frames = 25 in
  let run_fft n_procs =
    let sched, _feasible = schedule_or_fallback ~n_procs g in
    let config =
      { (Engine.default_config ~frames ~n_procs ()) with
        Engine.platform = Platform.create ~overhead ~n_procs ();
        inputs = Fppn_apps.Fft.input_feed p ~frames }
    in
    Engine.run net d sched config
  in
  let r1, r2 =
    match Pool.map_list ~chunk:1 pool run_fft [ 1; 2 ] with
    | [ r1; r2 ] -> (r1, r2)
    | _ -> assert false
  in
  subsection buf "summary (paper vs measured)";
  table buf
    ~header:[ "quantity"; "paper"; "measured" ]
    [
      [ "processes / jobs per frame"; "14"; string_of_int (Graph.n_jobs g) ];
      [ "task-graph load (no overhead)"; "0.93"; fstr (Rat.to_float load.Analysis.value) ];
      [ "load with 41 ms overhead job"; "~1.2"; fstr (Rat.to_float load_oh.Analysis.value) ];
      [ "ceil(load) processors needed"; "2"; string_of_int (Rat.ceil load_oh.Analysis.value) ];
      [ Printf.sprintf "deadline misses, M=1 (%d frames)" frames;
        "observed (>0)"; string_of_int r1.Engine.stats.Exec_trace.misses ];
      [ Printf.sprintf "deadline misses, M=2 (%d frames)" frames;
        "0"; string_of_int r2.Engine.stats.Exec_trace.misses ];
      [ "frame overhead modelled"; "41 ms first / 20 ms steady"; "same" ];
    ];
  subsection buf "M=2 steady-state frame (Fig. 6 analogue; frame 1, 200-400 ms)";
  let rows =
    Exec_trace.to_gantt_rows ~runtime_row:(Engine.overhead_segments r2)
      (List.filter (fun (r : Exec_trace.record) -> r.Exec_trace.frame = 1) (Engine.trace r2))
  in
  let rows =
    List.map
      (fun (row : Gantt.row) ->
        { row with
          Gantt.segments =
            List.filter
              (fun (s : Gantt.segment) -> s.Gantt.start >= 200.0 && s.Gantt.finish <= 400.0)
              row.Gantt.segments })
      rows
  in
  gantt buf ~width:66 ~t_min:200.0 ~t_max:400.0 rows

(* ------------------------------------------------------------------ *)
(* E4: FMS avionics case study (Fig. 7, Sec. V-B numbers)               *)
(* ------------------------------------------------------------------ *)

let e4_fms pool buf =
  section buf "E4  FMS avionics case study (Fig. 7, Sec. V-B)";
  let net40 = Fppn_apps.Fms.original () in
  let d40 = Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet net40 in
  let net = Fppn_apps.Fms.reduced () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet net in
  let g = d.Derive.graph in
  let load = (Analysis.analyse g).load in
  let horizon = d.Derive.hyperperiod in
  let traces =
    Fppn_apps.Fms.random_config_traces ~seed:11 ~horizon ~density:0.5 net
  in
  (* keep only events whose window closes inside the simulated frame *)
  let traces = Engine.handled_traces net d ~frames:1 traces in
  let run_fms ~n_procs =
    let sched, feasible = schedule_or_fallback ~n_procs g in
    let config =
      { (Engine.default_config ~frames:1 ~n_procs ()) with
        Engine.sporadic = traces;
        exec = Exec_time.uniform ~seed:5 ~min_fraction:0.5 }
    in
    (Engine.run net d sched config, feasible)
  in
  let results =
    Pool.map_list ~chunk:1 pool (fun m -> (m, run_fms ~n_procs:m)) [ 1; 2; 4 ]
  in
  (* functional equivalence with the rate-monotonic uniprocessor
     prototype, "verified by testing" in the paper *)
  let zd = Semantics.run net (Semantics.invocations ~sporadic:traces ~horizon net) in
  let up =
    Preemptive.run net
      { (Preemptive.default_config ~policy:(Fixed Rate_monotonic) ~n_procs:1
           ~wcet:Fppn_apps.Fms.wcet ~horizon)
        with
        Preemptive.sporadic = traces }
  in
  let equivalent =
    Semantics.equal_signature (Semantics.signature zd) (Preemptive.signature up)
  in
  subsection buf "summary (paper vs measured)";
  table buf
    ~header:[ "quantity"; "paper"; "measured" ]
    ([
       [ "processes (periodic + sporadic)"; "12 (5+7)";
         string_of_int (Network.n_processes net) ];
       [ "original hyperperiod"; "40 s";
         fstr (Rat.to_float d40.Derive.hyperperiod /. 1000.0) ^ " s" ];
       [ "reduced hyperperiod (MagnDeclin 1600->400 ms)"; "10 s";
         fstr (Rat.to_float d.Derive.hyperperiod /. 1000.0) ^ " s" ];
       [ "task-graph jobs"; "812"; string_of_int (Graph.n_jobs g) ];
       [ "task-graph edges"; "1977"; string_of_int (Graph.n_edges g) ];
       [ "edges before reduction"; "-"; string_of_int d.Derive.raw_edges ];
       [ "task-graph load"; "~0.23"; fstr (Rat.to_float load.Analysis.value) ];
       [ "RM uniprocessor functionally equivalent"; "yes (verified by testing)";
         (if equivalent then "yes" else "NO") ];
     ]
    @ List.map
        (fun (m, (r, feasible)) ->
          [
            Printf.sprintf "M=%d: deadline misses (1 frame)" m;
            (if m = 1 then "0 (no misses at load 0.23)" else "0");
            Printf.sprintf "%d%s" r.Engine.stats.Exec_trace.misses
              (if feasible then "" else " (fallback schedule)");
          ])
        results);
  subsection buf
    "M=2 execution, first second of the 10 s frame (the extended version's \
     Gantt)";
  (let sched2, _ = schedule_or_fallback ~n_procs:2 g in
   let r2 =
     Engine.run net d sched2
       { (Engine.default_config ~frames:1 ~n_procs:2 ()) with
         Engine.sporadic = traces }
   in
   let rows =
     List.map
       (fun (row : Gantt.row) ->
         { row with
           Gantt.segments =
             List.filter (fun (s : Gantt.segment) -> s.Gantt.finish <= 1000.0) row.Gantt.segments })
       (Exec_trace.to_gantt_rows (Engine.trace r2))
   in
   gantt buf ~width:66 ~t_min:0.0 ~t_max:1000.0 rows);
  subsection buf "per-M schedule quality";
  table buf
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~header:[ "M"; "makespan (ms)"; "executed"; "skipped ('false' slots)" ]
    (List.map
       (fun (m, (r, _)) ->
         let sched, _ = schedule_or_fallback ~n_procs:m g in
         [
           string_of_int m;
           Rat.to_string (Static_schedule.makespan g sched);
           string_of_int r.Engine.stats.Exec_trace.executed;
           string_of_int r.Engine.stats.Exec_trace.skipped;
         ])
       results)

(* ------------------------------------------------------------------ *)
(* E5: determinism across interpreters (Props. 2.1 and 4.1)             *)
(* ------------------------------------------------------------------ *)

let e5_determinism pool buf =
  section buf "E5  Deterministic execution (Props. 2.1 / 4.1)";
  let net = Fppn_apps.Fig1.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet net in
  let frames = 4 in
  let horizon = Rat.mul d.Derive.hyperperiod (Rat.of_int frames) in
  let coefb = [ ms 50; ms 200 ] in
  let inputs = Fppn_apps.Fig1.input_feed ~samples:64 in
  let zd =
    Semantics.run ~inputs net
      (Semantics.invocations ~sporadic:[ ("CoefB", coefb) ] ~horizon net)
  in
  let zd_sig = Semantics.signature zd in
  let engine_check ~n_procs ~seed () =
    let sched, _ = schedule_or_fallback ~n_procs d.Derive.graph in
    let config =
      { (Engine.default_config ~frames ~n_procs ()) with
        Engine.sporadic = [ ("CoefB", coefb) ];
        inputs;
        exec = Exec_time.uniform ~seed ~min_fraction:0.25 }
    in
    Semantics.equal_signature zd_sig
      (Engine.signature (Engine.run net d sched config))
  in
  let ta_check ~n_procs ~seed () =
    let sched, _ = schedule_or_fallback ~n_procs d.Derive.graph in
    let config =
      { (Engine.default_config ~frames ~n_procs ()) with
        Engine.sporadic = [ ("CoefB", coefb) ];
        inputs;
        exec = Exec_time.uniform ~seed ~min_fraction:0.25 }
    in
    Semantics.equal_signature zd_sig
      (Translate.signature (Translate.execute (Translate.build net d sched config)))
  in
  let rows =
    Pool.map_list ~chunk:1 pool
      (fun (label, check) ->
        [ label; (if check () then "identical" else "DIFFERS") ])
      [
        ("zero-delay vs static-order runtime, M=2, jitter seed 1", engine_check ~n_procs:2 ~seed:1);
        ("zero-delay vs static-order runtime, M=2, jitter seed 42", engine_check ~n_procs:2 ~seed:42);
        ("zero-delay vs static-order runtime, M=3, jitter seed 7", engine_check ~n_procs:3 ~seed:7);
        ("zero-delay vs static-order runtime, M=4, jitter seed 13", engine_check ~n_procs:4 ~seed:13);
        ("zero-delay vs timed-automata backend, M=2, jitter seed 5", ta_check ~n_procs:2 ~seed:5);
        ("zero-delay vs timed-automata backend, M=4, jitter seed 9", ta_check ~n_procs:4 ~seed:9);
      ]
  in
  table buf
    ~header:[ "comparison (Fig. 1 app, 4 frames, sporadic CoefB)"; "channel histories" ]
    rows

(* ------------------------------------------------------------------ *)
(* E6: schedule-priority heuristic ablation (Sec. III-B)                *)
(* ------------------------------------------------------------------ *)

let e6_heuristics pool buf =
  section buf "E6  Ablation: schedule-priority heuristics (Sec. III-B)";
  let cases =
    let fig1 = Fppn_apps.Fig1.network () in
    let fft = Fppn_apps.Fft.network Fppn_apps.Fft.default_params in
    let fms = Fppn_apps.Fms.reduced () in
    let rand =
      Fppn_apps.Randgen.network
        { Fppn_apps.Randgen.default_params with seed = 5; n_periodic = 10; n_sporadic = 3 }
    in
    [
      ("fig1 (M=2)", Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet fig1, 2);
      ( "fft8 (M=2)",
        Derive.derive_exn ~wcet:(Fppn_apps.Fft.wcet_map Fppn_apps.Fft.default_params) fft,
        2 );
      ("fms (M=1)", Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet fms, 1);
      ( "random10 (M=2)",
        Derive.derive_exn
          ~wcet:
            (Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 6)
               (Derive.const_wcet Rat.one) rand)
          rand,
        2 );
    ]
  in
  let header = "workload" :: List.map Priority.to_string Priority.all in
  let rows =
    Pool.map_list ~chunk:1 pool
      (fun (name, d, n_procs) ->
        name
        :: List.map
             (fun h ->
               let s =
                 List_scheduler.schedule_with ~heuristic:h ~n_procs d.Derive.graph
               in
               let feasible = Static_schedule.is_feasible d.Derive.graph s in
               Printf.sprintf "%s %s"
                 (if feasible then "ok" else "MISS")
                 (Rat.to_string (Static_schedule.makespan d.Derive.graph s)))
             Priority.all)
      cases
  in
  table buf ~header rows;
  bline buf "  (cell = feasibility + makespan in ms under that heuristic)";
  (* the Sec. III-B remark: a sub-optimal SP can be repaired by search *)
  subsection buf "stochastic SP repair (ref. [8]) starting from FIFO on fig1 (M=2)";
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet (Fppn_apps.Fig1.network ()) in
  let g = d.Derive.graph in
  let base = List_scheduler.schedule_with ~heuristic:Priority.Fifo_arrival ~n_procs:2 g in
  let o = Sched.Optimizer.improve ~seed:7 ~iterations:600 ~start:Priority.Fifo_arrival ~n_procs:2 g in
  table buf
    ~header:[ "schedule"; "feasible"; "makespan ms" ]
    [
      [ "fifo heuristic"; string_of_bool (Static_schedule.is_feasible g base);
        Rat.to_string (Static_schedule.makespan g base) ];
      [ Printf.sprintf "fifo + %d swap trials" o.Sched.Optimizer.iterations;
        string_of_bool o.Sched.Optimizer.feasible;
        Rat.to_string o.Sched.Optimizer.makespan ];
    ]

(* ------------------------------------------------------------------ *)
(* E7: job-granularity sweep (Sec. V-A closing remark)                  *)
(* ------------------------------------------------------------------ *)

let e7_granularity pool buf =
  section buf "E7  Granularity sweep: overhead impact vs job grain (Sec. V-A)";
  bline buf
    "  The FFT is scaled: period and WCET grow together (same intrinsic\n\
    \  load 0.93) while the 41/20 ms runtime overhead stays fixed, so the\n\
    \  relative overhead shrinks as jobs get coarser.";
  let overhead =
    { Platform.first_frame = ms 41; steady_frame = ms 20; per_access = Rat.zero }
  in
  let rows =
    Pool.map_list ~chunk:1 pool
      (fun (label, period_ms, wcet) ->
        let p = { Fppn_apps.Fft.n = 8; period_ms; wcet } in
        let net = Fppn_apps.Fft.network p in
        let d = Derive.derive_exn ~wcet:(Fppn_apps.Fft.wcet_map p) net in
        let g = d.Derive.graph in
        (* effective utilization including the per-frame overhead *)
        let eff =
          Rat.to_float
            (Rat.div (Rat.add (ms 41) (Graph.total_wcet g)) (ms period_ms))
        in
        let run ~n_procs =
          let sched, _ = schedule_or_fallback ~n_procs g in
          let config =
            { (Engine.default_config ~frames:12 ~n_procs ()) with
              Engine.platform = Platform.create ~overhead ~n_procs () }
          in
          (Engine.run net d sched config).Engine.stats.Exec_trace.misses
        in
        [
          label;
          string_of_int period_ms;
          Rat.to_string wcet;
          fstr eff;
          string_of_int (run ~n_procs:1);
          string_of_int (run ~n_procs:2);
        ])
      [
        ("0.5x", 100, Rat.make 133 20);
        ("1x (paper)", 200, Rat.make 133 10);
        ("1.5x", 300, Rat.make 399 20);
        ("2x", 400, Rat.make 133 5);
        ("4x", 800, Rat.make 266 5);
      ]
  in
  table buf
    ~aligns:
      [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:
      [ "grain"; "period ms"; "wcet ms"; "load+overhead"; "misses M=1"; "misses M=2" ]
    rows;
  bline buf
    "  Expected shape: fine grain -> overhead dominates, M=1 misses;\n\
    \  coarse grain -> load+overhead drops below 1 and M=1 suffices."

(* ------------------------------------------------------------------ *)
(* E8: why FPPN — global EDF is not deterministic                       *)
(* ------------------------------------------------------------------ *)

let e8_nondeterminism pool buf =
  section buf "E8  Motivation check: naive global EDF is not deterministic (Sec. I)";
  bline buf
    "  The same Fig. 1 workload, same inputs, same event stamps, executed\n\
    \  with 8 different execution-time jitter seeds.  Global preemptive EDF\n\
    \  (no functional priorities, no precedence synchronization) lets the\n\
    \  interleaving leak into the data; the FPPN static-order runtime does\n\
    \  not.";
  let net = Fppn_apps.Fig1.network () in
  let inputs = Fppn_apps.Fig1.input_feed ~samples:64 in
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let distinct signatures =
    List.length
      (List.fold_left
         (fun acc s ->
           if List.exists (Semantics.equal_signature s) acc then acc
           else s :: acc)
         [] signatures)
  in
  let edf_sigs =
    Pool.map_list ~chunk:1 pool
      (fun seed ->
        let cfg =
          { (Preemptive.default_config ~policy:Edf ~n_procs:2
               ~wcet:Fppn_apps.Fig1.wcet ~horizon:(ms 1000))
            with
            Preemptive.exec = Exec_time.uniform ~seed ~min_fraction:0.05;
            inputs }
        in
        Preemptive.signature (Preemptive.run net cfg))
      seeds
  in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet net in
  let sched, _ = schedule_or_fallback ~n_procs:2 d.Derive.graph in
  let fppn_sigs =
    Pool.map_list ~chunk:1 pool
      (fun seed ->
        let cfg =
          { (Engine.default_config ~frames:5 ~n_procs:2 ()) with
            Engine.inputs = inputs;
            exec = Exec_time.uniform ~seed ~min_fraction:0.05 }
        in
        Engine.signature (Engine.run net d sched cfg))
      seeds
  in
  table buf
    ~header:[ "runtime"; "distinct channel histories over 8 jitter seeds" ]
    [
      [ "global EDF (M=2)"; string_of_int (distinct edf_sigs) ];
      [ "FPPN static-order (M=2)"; string_of_int (distinct fppn_sigs) ];
    ];
  bline buf "  (1 = deterministic; >1 = outputs depend on execution timing)"

(* ------------------------------------------------------------------ *)
(* End-to-end latency (the Sec. I motivation)                           *)
(* ------------------------------------------------------------------ *)

let latency_analysis buf =
  section buf "End-to-end latency: deterministic reaction times";
  bline buf
    "  Because the task graph fixes which source job each sink job reads,\n\
    \  end-to-end reaction times are well defined; under WCET execution they\n\
    \  give a bound that jittered runs can only improve on.";
  let fig1 = Fppn_apps.Fig1.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet fig1 in
  let sched, _ = schedule_or_fallback ~n_procs:2 d.Derive.graph in
  let run exec =
    let cfg = { (Engine.default_config ~frames:3 ~n_procs:2 ()) with Engine.exec } in
    Engine.run fig1 d sched cfg
  in
  let latency trace src snk =
    Runtime.Latency.analyse d.Derive.graph ~source:src ~sink:snk trace
  in
  let bound = latency (Engine.trace (run Exec_time.constant)) "InputA" "OutputA" in
  let jittered =
    latency
      (Engine.trace (run (Exec_time.uniform ~seed:9 ~min_fraction:0.3)))
      "InputA" "OutputA"
  in
  let fms = Fppn_apps.Fms.reduced () in
  let dfms = Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet fms in
  let sfms, _ = schedule_or_fallback ~n_procs:1 dfms.Derive.graph in
  let rfms =
    Engine.run fms dfms sfms (Engine.default_config ~frames:1 ~n_procs:1 ())
  in
  let fms_lat =
    Runtime.Latency.analyse dfms.Derive.graph ~source:"SensorInput"
      ~sink:"Performance" (Engine.trace rfms)
  in
  table buf
    ~header:[ "chain"; "execution"; "max reaction ms"; "mean ms"; "max age ms" ]
    [
      [ "fig1 InputA->OutputA (M=2)"; "WCET";
        Rat.to_string bound.Runtime.Latency.max_reaction;
        fstr bound.Runtime.Latency.mean_reaction_ms;
        Rat.to_string bound.Runtime.Latency.max_age ];
      [ "fig1 InputA->OutputA (M=2)"; "jittered";
        Rat.to_string jittered.Runtime.Latency.max_reaction;
        fstr jittered.Runtime.Latency.mean_reaction_ms;
        Rat.to_string jittered.Runtime.Latency.max_age ];
      [ "fms SensorInput->Performance (M=1)"; "WCET";
        Rat.to_string fms_lat.Runtime.Latency.max_reaction;
        fstr fms_lat.Runtime.Latency.mean_reaction_ms;
        Rat.to_string fms_lat.Runtime.Latency.max_age ];
    ]

(* ------------------------------------------------------------------ *)
(* Classical response-time analysis vs simulation                       *)
(* ------------------------------------------------------------------ *)

let rta_section buf =
  section buf "Uniprocessor response-time analysis (ref. [9]) vs simulation";
  bline buf
    "  The analytic rate-monotonic bound must dominate every simulated\n\
    \  response of the preemptive uniprocessor baseline.";
  List.iter
    (fun (name, net, wcet, horizon) ->
      subsection buf name;
      let entries = Sched.Rta.analyse ~wcet net in
      let up =
        Preemptive.run net
          (Preemptive.default_config ~policy:(Fixed Rate_monotonic) ~n_procs:1
             ~wcet ~horizon)
      in
      let observed = Hashtbl.create 16 in
      List.iter
        (fun (r : Preemptive.record) ->
          let resp = Rat.sub r.finished r.released in
          let prev =
            try Hashtbl.find observed r.process with Not_found -> Rat.zero
          in
          Hashtbl.replace observed r.process (Rat.max prev resp))
        up.records;
      table buf
        ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
        ~header:[ "process"; "analytic bound ms"; "simulated max ms"; "deadline ms" ]
        (List.map
           (fun (e : Sched.Rta.entry) ->
             [
               e.Sched.Rta.process;
               (match e.Sched.Rta.response with
               | Some r -> Rat.to_string r
               | None -> "unsched");
               (match Hashtbl.find_opt observed e.Sched.Rta.process with
               | Some r -> Rat.to_string r
               | None -> "-");
               Rat.to_string e.Sched.Rta.deadline;
             ])
           entries))
    [
      ("fms (RM, 10 s)", Fppn_apps.Fms.reduced (), Fppn_apps.Fms.wcet, ms 10_000);
      ( "automotive (RM, 200 ms)",
        Fppn_apps.Automotive.network (),
        Fppn_apps.Automotive.wcet,
        ms 200 );
    ]

(* ------------------------------------------------------------------ *)
(* Buffer sizing (Prop. 2.1 applied to FIFO occupancy)                  *)
(* ------------------------------------------------------------------ *)

let buffer_sizing buf =
  section buf "Buffer sizing: FIFO occupancy bounds from the reference run";
  let report name net ~sporadic ~inputs =
    subsection buf name;
    let r = Fppn.Buffer_analysis.analyse ~hyperperiods:4 ?sporadic ?inputs net in
    Buffer.add_string buf (Format.asprintf "%a" Fppn.Buffer_analysis.pp r)
  in
  report "fig1" (Fppn_apps.Fig1.network ())
    ~sporadic:None
    ~inputs:(Some (Fppn_apps.Fig1.input_feed ~samples:64));
  report "fft8"
    (Fppn_apps.Fft.network Fppn_apps.Fft.default_params)
    ~sporadic:None ~inputs:None

(* ------------------------------------------------------------------ *)
(* Processor dimensioning                                               *)
(* ------------------------------------------------------------------ *)

let dimensioning pool buf =
  section buf "Processor dimensioning (Prop. 3.1 lower bound vs list scheduler)";
  let p = Fppn_apps.Fft.default_params in
  let cases =
    [
      ("fig1", Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet (Fppn_apps.Fig1.network ()));
      ("fft8", Derive.derive_exn ~wcet:(Fppn_apps.Fft.wcet_map p) (Fppn_apps.Fft.network p));
      ( "fft8+overhead",
        Derive.derive_exn
          ~wcet:(Fppn_apps.Fft.wcet_map_with_overhead p ~overhead:(ms 41))
          (Fppn_apps.Fft.network_with_overhead_job p) );
      ("fms", Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet (Fppn_apps.Fms.reduced ()));
      ( "automotive",
        Derive.derive_exn ~wcet:Fppn_apps.Automotive.wcet
          (Fppn_apps.Automotive.network ()) );
    ]
  in
  table buf
    ~header:[ "workload"; "ceil(load)"; "processors found"; "makespan ms" ]
    (Pool.map_list ~chunk:1 pool
       (fun (name, d) ->
         let v = Sched.Dimension.min_processors d.Derive.graph in
         match v.Sched.Dimension.found with
         | Some (m, a) ->
           [
             name;
             string_of_int v.Sched.Dimension.lower_bound;
             string_of_int m;
             Rat.to_string a.List_scheduler.makespan;
           ]
         | None ->
           [ name; string_of_int v.Sched.Dimension.lower_bound; "none"; "-" ])
       cases);
  bline buf
    "  FFT: one core is not enough once the overhead job is accounted for,\n\
    \  two suffice — the Sec. V-A conclusion."

(* ------------------------------------------------------------------ *)
(* Ablation: transitive reduction                                       *)
(* ------------------------------------------------------------------ *)

let ablation_reduction buf =
  section buf "Ablation  Transitive reduction of the derived task graph";
  let rows =
    List.map
      (fun (name, net, wcet) ->
        let t0 = Unix.gettimeofday () in
        let with_red = Derive.derive_exn ~wcet net in
        let t1 = Unix.gettimeofday () in
        let without = Derive.derive_exn ~reduce:false ~wcet net in
        let t2 = Unix.gettimeofday () in
        [
          name;
          string_of_int (Graph.n_jobs with_red.Derive.graph);
          string_of_int without.Derive.raw_edges;
          string_of_int (Graph.n_edges with_red.Derive.graph);
          Printf.sprintf "%.1f" ((t1 -. t0) *. 1000.0);
          Printf.sprintf "%.1f" ((t2 -. t1) *. 1000.0);
        ])
      [
        ("fig1", Fppn_apps.Fig1.network (), Fppn_apps.Fig1.wcet);
        ( "fft8",
          Fppn_apps.Fft.network Fppn_apps.Fft.default_params,
          Fppn_apps.Fft.wcet_map Fppn_apps.Fft.default_params );
        ("fms", Fppn_apps.Fms.reduced (), Fppn_apps.Fms.wcet);
      ]
  in
  table buf
    ~aligns:
      [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:
      [ "workload"; "jobs"; "raw edges"; "reduced edges"; "derive+reduce ms";
        "derive only ms" ]
    rows

(* ------------------------------------------------------------------ *)
(* Heuristic optimality gap vs exact branch-and-bound (footnote 5)      *)
(* ------------------------------------------------------------------ *)

let exact_gap pool buf =
  section buf "Optimality gap: list scheduling vs exact branch-and-bound (fn. 5)";
  bline buf
    "  Footnote 5 contrasts scalable list scheduling with exact but\n\
    \  less-scalable search.  On graphs small enough to solve exactly, the\n\
    \  ALAP-EDF heuristic's makespan is compared with the proved optimum.";
  let cases =
    ( "fig1 (10 jobs, M=2)",
      (Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet (Fppn_apps.Fig1.network ())).Derive.graph,
      2 )
    :: List.map
         (fun seed ->
           let params =
             { Fppn_apps.Randgen.default_params with
               seed; n_periodic = 4; n_sporadic = 1 }
           in
           let net = Fppn_apps.Randgen.network params in
           let wcet =
             Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 8)
               (Derive.const_wcet Rat.one) net
           in
           ( Printf.sprintf "random seed %d (M=2)" seed,
             (Derive.derive_exn ~wcet net).Derive.graph,
             2 ))
         [ 101; 202; 303 ]
  in
  (* cases run concurrently; each solve stays sequential so its node
     count is reproducible *)
  let rows =
    Pool.map_list ~chunk:1 pool
      (fun (name, g, m) ->
        let s = List_scheduler.schedule_with ~heuristic:Priority.Alap_edf ~n_procs:m g in
        let heuristic_makespan = Static_schedule.makespan g s in
        let r = Sched.Exact.solve ~node_budget:500_000 ~n_procs:m g in
        [
          name;
          string_of_int (Graph.n_jobs g);
          Rat.to_string heuristic_makespan
          ^ (if Static_schedule.is_feasible g s then "" else " (misses)");
          (match r.Sched.Exact.makespan with
          | Some o -> Rat.to_string o
          | None -> if r.Sched.Exact.optimal then "infeasible" else "-");
          (if r.Sched.Exact.optimal then
             match r.Sched.Exact.makespan with
             | Some o ->
               Printf.sprintf "%.1f%%"
                 ((Rat.to_float heuristic_makespan -. Rat.to_float o)
                 /. Rat.to_float o *. 100.0)
             | None -> "-"
           else "budget hit");
          string_of_int r.Sched.Exact.nodes;
        ])
      cases
  in
  table buf
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:[ "graph"; "jobs"; "heuristic ms"; "optimal ms"; "gap"; "B&B nodes" ]
    rows

(* ------------------------------------------------------------------ *)
(* Scheduler capacity study on random workloads                         *)
(* ------------------------------------------------------------------ *)

let capacity_study pool buf =
  section buf "Scheduler capacity: feasibility rate vs utilization and processors";
  bline buf
    "  100 random FPPNs per cell (2-8 periodic + 0-3 sporadic processes);\n\
    \  per-process WCET = scale * T_p.  A cell reports how many workloads\n\
    \  the heuristic portfolio schedules feasibly on M processors.";
  let seeds = List.init 100 (fun i -> 1000 + i) in
  let graphs scale =
    List.map
      (fun seed ->
        let params =
          { Fppn_apps.Randgen.default_params with
            seed;
            n_periodic = 2 + (seed mod 7);
            n_sporadic = seed mod 4 }
        in
        let net = Fppn_apps.Randgen.network params in
        let wcet =
          Fppn_apps.Randgen.wcet ~scale (Derive.const_wcet Rat.one) net
        in
        (Derive.derive_exn ~wcet net).Derive.graph)
      seeds
  in
  let rows =
    Pool.map_list ~chunk:1 pool
      (fun (label, scale) ->
        let gs = graphs scale in
        label
        :: List.map
             (fun m ->
               let feasible =
                 List.length
                   (List.filter Fun.id
                      (Pool.map_list pool
                         (fun g -> snd (List_scheduler.auto ~n_procs:m g) <> None)
                         gs))
               in
               Printf.sprintf "%d%%" feasible)
             [ 1; 2; 4 ])
      [
        ("scale 1/20", Rat.make 1 20);
        ("scale 1/10", Rat.make 1 10);
        ("scale 1/6", Rat.make 1 6);
        ("scale 1/4", Rat.make 1 4);
      ]
  in
  table buf ~header:[ "per-process utilization"; "M=1"; "M=2"; "M=4" ] rows;
  bline buf
    "  Feasibility falls as utilization grows and recovers with processors\n\
    \  — until precedence chains, not capacity, become the binding constraint."

(* ------------------------------------------------------------------ *)
(* Future work implemented: mixed-criticality execution                 *)
(* ------------------------------------------------------------------ *)

let mixed_criticality buf =
  section buf "Future work: mixed-critical scheduling (Sec. VI)";
  bline buf
    "  Dual-criticality demo (examples/mixed_criticality.ml): a HI control\n\
    \  chain shares two cores with LO best-effort processes.  True durations\n\
    \  are jittered up to the conservative C_HI budgets, so some frames\n\
    \  overrun the optimistic C_LO budgets and degrade.";
  let module Spec = Mixedcrit.Spec in
  let module Dual = Mixedcrit.Dual_schedule in
  let module Mc = Mixedcrit.Mc_engine in
  let ms_ = ms in
  let b = Network.Builder.create "mc-bench" in
  let add name body =
    Network.Builder.add_process b
      (Fppn.Process.make ~name
         ~event:(Fppn.Event.periodic ~period:(ms_ 100) ~deadline:(ms_ 100) ())
         (Fppn.Process.Native body))
  in
  add "Sensor" (fun ctx -> ctx.Fppn.Process.write "meas" (V.Int ctx.Fppn.Process.job_index));
  add "Control" (fun ctx ->
      ctx.Fppn.Process.write "act" (ctx.Fppn.Process.read "meas"));
  add "Logger" (fun _ -> ());
  add "Telemetry" (fun _ -> ());
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"Sensor"
    ~reader:"Control" "meas";
  Network.Builder.add_priority b "Sensor" "Control";
  Network.Builder.add_output b ~owner:"Control" "act";
  let net = Network.Builder.finish_exn b in
  let spec =
    Spec.of_list ~default_criticality:Spec.Lo
      ~wcet_lo:(Derive.wcet_of_list (ms_ 30) [ ("Sensor", ms_ 15); ("Control", ms_ 20) ])
      ~hi:[ ("Sensor", ms_ 40); ("Control", ms_ 55) ]
  in
  let dual = Dual.build_exn ~n_procs:2 ~spec net in
  let rows =
    List.map
      (fun (label, exec) ->
        let config =
          { (Mc.default_config ~frames:50 ~n_procs:2 ()) with Mc.exec }
        in
        let r = Mc.run net ~spec dual config in
        [
          label;
          string_of_int (List.length r.Mc.mode_switches);
          string_of_int r.Mc.dropped_lo;
          string_of_int r.Mc.hi_misses;
          string_of_int (List.length (List.assoc "act" r.Mc.output_history));
        ])
      [
        ("within C_LO (durations 0.35 x C_HI)", Exec_time.scaled 0.35);
        ("occasional overruns (uniform up to C_HI)", Exec_time.uniform ~seed:3 ~min_fraction:0.3);
      ]
  in
  table buf
    ~header:
      [ "true-duration regime"; "degraded frames /50"; "LO jobs dropped";
        "HI misses"; "HI outputs /50" ]
    rows;
  bline buf
    "  The HI chain never misses and always produces its output; LO work is\n\
    \  shed exactly in the degraded frames."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let microbenchmarks buf =
  section buf "Micro-benchmarks (Bechamel, OLS on monotonic clock)";
  let open Bechamel in
  let fig1_net = Fppn_apps.Fig1.network () in
  let fig1_d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet fig1_net in
  let fig1_sched, _ = schedule_or_fallback ~n_procs:2 fig1_d.Derive.graph in
  let fms_net = Fppn_apps.Fms.reduced () in
  let fms_d = Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet fms_net in
  (* [Graph.dag] builds a fresh digraph: built once, so the row times the
     reduction alone *)
  let fms_raw_dag =
    Graph.dag (Derive.derive_exn ~reduce:false ~wcet:Fppn_apps.Fms.wcet fms_net).Derive.graph
  in
  let fft_p = Fppn_apps.Fft.default_params in
  let fft_net = Fppn_apps.Fft.network fft_p in
  let exact_g =
    let net =
      Fppn_apps.Randgen.network
        { Fppn_apps.Randgen.default_params with
          seed = 101; n_periodic = 4; n_sporadic = 1 }
    in
    let wcet =
      Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 8) (Derive.const_wcet Rat.one) net
    in
    (Derive.derive_exn ~wcet net).Derive.graph
  in
  let co_apps =
    [
      { Sched.Cosched.app_name = "fms"; app_priority = 0; graph = fms_d.Derive.graph };
      { Sched.Cosched.app_name = "automotive"; app_priority = 1;
        graph =
          (Derive.derive_exn ~wcet:Fppn_apps.Automotive.wcet
             (Fppn_apps.Automotive.network ()))
            .Derive.graph };
    ]
  in
  let tests =
    [
      Test.make ~name:"derive.fig1"
        (Staged.stage (fun () ->
             ignore (Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet fig1_net)));
      Test.make ~name:"derive.fms-812-jobs"
        (Staged.stage (fun () ->
             ignore (Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet fms_net)));
      Test.make ~name:"transitive-reduction.fms"
        (Staged.stage (fun () ->
             ignore
               (Rt_util.Digraph.transitive_reduction fms_raw_dag)));
      Test.make ~name:"asap-alap-load.fms"
        (Staged.stage (fun () ->
             ignore (Analysis.analyse fms_d.Derive.graph)));
      Test.make ~name:"list-schedule.fms-m2"
        (Staged.stage (fun () ->
             ignore
               (List_scheduler.schedule_with ~heuristic:Priority.Alap_edf ~n_procs:2
                  fms_d.Derive.graph)));
      Test.make ~name:"zero-delay.fig1-hyperperiod"
        (Staged.stage (fun () ->
             ignore
               (Semantics.run fig1_net (Semantics.invocations ~horizon:(ms 200) fig1_net))));
      Test.make ~name:"engine.fig1-frame-m2"
        (Staged.stage (fun () ->
             ignore
               (Engine.run fig1_net fig1_d fig1_sched
                  (Engine.default_config ~frames:1 ~n_procs:2 ()))));
      Test.make ~name:"engine.fig1-frame-m2-traced"
        (Staged.stage (fun () ->
             Fppn_obs.Trace.set_enabled true;
             Fppn_obs.Metrics.set_enabled true;
             ignore
               (Engine.run fig1_net fig1_d fig1_sched
                  (Engine.default_config ~frames:1 ~n_procs:2 ()));
             Fppn_obs.Trace.set_enabled false;
             Fppn_obs.Metrics.set_enabled false));
      Test.make ~name:"timed-automata.fig1-frame-m2"
        (Staged.stage (fun () ->
             ignore
               (Translate.execute
                  (Translate.build fig1_net fig1_d fig1_sched
                     (Engine.default_config ~frames:1 ~n_procs:2 ())))));
      Test.make ~name:"derive+schedule.fft64-scalability"
        (Staged.stage
           (let p64 = { Fppn_apps.Fft.default_params with Fppn_apps.Fft.n = 64 } in
            let net64 = Fppn_apps.Fft.network p64 in
            fun () ->
              let d = Derive.derive_exn ~wcet:(Fppn_apps.Fft.wcet_map p64) net64 in
              ignore
                (List_scheduler.schedule_with ~heuristic:Priority.Alap_edf
                   ~n_procs:4 d.Derive.graph)));
      Test.make ~name:"zero-delay.fft8-frame"
        (Staged.stage (fun () ->
             ignore
               (Semantics.run fft_net (Semantics.invocations ~horizon:(ms 200) fft_net))));
      Test.make ~name:"fuzz-campaign.40-cases-jobs1"
        (Staged.stage (fun () ->
             ignore
               (Fppn_fuzz.Campaign.run ~jobs:1
                  { Fppn_fuzz.Campaign.default_config with budget = 40 })));
      Test.make ~name:"exact.random101-m2-20k-nodes"
        (Staged.stage (fun () ->
             ignore (Sched.Exact.solve ~node_budget:20_000 ~n_procs:2 exact_g)));
    ]
    @ List.map
        (fun variant ->
          Test.make
            ~name:("cosched-auto.fms+automotive-m4-" ^ Sched.Cosched.variant_to_string variant)
            (Staged.stage (fun () ->
                 ignore (Sched.Cosched.auto ~variant ~n_procs:4 co_apps))))
        [ Sched.Cosched.Fair; Sched.Cosched.Slots ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"fppn" tests) in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let time_ns =
        match Analyze.OLS.estimates ols_result with Some (t :: _) -> t | _ -> nan
      in
      let pretty =
        if Float.is_nan time_ns then "n/a"
        else if time_ns > 1e6 then Printf.sprintf "%.3f ms" (time_ns /. 1e6)
        else if time_ns > 1e3 then Printf.sprintf "%.3f us" (time_ns /. 1e3)
        else Printf.sprintf "%.0f ns" time_ns
      in
      rows := [ name; pretty ] :: !rows)
    results;
  table buf
    ~aligns:[ Table.Left; Table.Right ]
    ~header:[ "benchmark"; "time/run" ]
    (List.sort (fun a b -> compare (List.hd a) (List.hd b)) !rows)

(* ------------------------------------------------------------------ *)
(* Multi-application co-scheduling: fair vs preallocated slots          *)
(* ------------------------------------------------------------------ *)

let cosched_apps () =
  [
    ( "fig1",
      (Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet (Fppn_apps.Fig1.network ()))
        .Derive.graph );
    ( "automotive",
      (Derive.derive_exn ~wcet:Fppn_apps.Automotive.wcet
         (Fppn_apps.Automotive.network ()))
        .Derive.graph );
    ( "fms",
      (Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet (Fppn_apps.Fms.reduced ()))
        .Derive.graph );
  ]

let cosched_study pool buf =
  section buf "Multi-application co-scheduling (fair vs preallocated slots)";
  let graphs = cosched_apps () in
  let apps_named names =
    List.mapi
      (fun i n ->
        { Sched.Cosched.app_name = n; app_priority = i;
          graph = List.assoc n graphs })
      names
  in
  let cases =
    [
      ([ "fig1"; "automotive" ], 2);
      ([ "fig1"; "automotive" ], 4);
      ([ "fig1"; "automotive"; "fms" ], 3);
      ([ "fig1"; "automotive"; "fms" ], 4);
    ]
  in
  let rows =
    Pool.map_list ~chunk:1 pool
      (fun ((names, m), variant) ->
        let apps = apps_named names in
        let result =
          match snd (Sched.Cosched.auto ~variant ~n_procs:m apps) with
          | Some a -> a.Sched.Cosched.result
          | None -> Sched.Cosched.schedule_with ~variant ~n_procs:m apps
        in
        [
          String.concat "+" names;
          string_of_int m;
          Sched.Cosched.variant_to_string variant;
          String.concat " / "
            (List.map
               (fun (r : Sched.Cosched.app_report) ->
                 Printf.sprintf "%g%s"
                   (Rat.to_float r.Sched.Cosched.makespan)
                   (if r.Sched.Cosched.feasible then "" else "!"))
               result.Sched.Cosched.reports);
          Printf.sprintf "%g" (Rat.to_float result.Sched.Cosched.makespan);
          (if result.Sched.Cosched.feasible then "yes" else "no");
        ])
      (List.concat_map
         (fun c -> [ (c, Sched.Cosched.Fair); (c, Sched.Cosched.Slots) ])
         cases)
  in
  table buf
    ~aligns:
      [ Table.Left; Table.Right; Table.Left; Table.Right; Table.Right;
        Table.Right ]
    ~header:
      [ "applications"; "M"; "variant"; "per-app makespan ms (!=miss)";
        "combined ms"; "feasible" ]
    rows;
  (* admission-control corner: the hook rejects before any schedule is
     attempted when Prop. 3.1 already rules the candidate out *)
  let fig1 = apps_named [ "fig1" ] in
  let fms_app =
    { Sched.Cosched.app_name = "fms"; app_priority = 9;
      graph = List.assoc "fms" graphs }
  in
  let verdict m =
    match Sched.Cosched.admit ~n_procs:m ~admitted:fig1 fms_app with
    | Sched.Cosched.Admitted _ -> "admitted"
    | Sched.Cosched.Rejected { reason; _ } -> "rejected: " ^ reason
  in
  bline buf
    (Printf.sprintf
       "  admit fms next to fig1 on M=2: %s\n  admit fms next to fig1 on M=4: %s\n\
       \  Fair shares all M processors (shorter combined makespans); slots\n\
       \  trade makespan for isolation — an app can never displace another."
       (verdict 2) (verdict 4))

(* ------------------------------------------------------------------ *)
(* Experiment driver                                                    *)
(* ------------------------------------------------------------------ *)

let run_experiments pool =
  print_endline "FPPN experiment harness — reproduction of Poplavko et al., DATE 2015";
  (* all paper-reproduction sections are pure in their inputs, so they
     render concurrently; printing keeps the fixed order below *)
  let rendered =
    Pool.map_list ~chunk:1 pool
      (fun f ->
        let buf = Buffer.create 4096 in
        f buf;
        Buffer.contents buf)
      [
        e1_fig3;
        e2_fig4 pool;
        e3_fft pool;
        e4_fms pool;
        e5_determinism pool;
        e6_heuristics pool;
        e7_granularity pool;
        e8_nondeterminism pool;
        latency_analysis;
        rta_section;
        buffer_sizing;
        dimensioning pool;
        exact_gap pool;
        capacity_study pool;
        cosched_study pool;
      ]
  in
  List.iter print_string rendered;
  (* timing-sensitive sections run after the pool is quiet *)
  List.iter
    (fun f ->
      let buf = Buffer.create 4096 in
      f buf;
      print_string (Buffer.contents buf))
    [ ablation_reduction; mixed_criticality; microbenchmarks ];
  print_endline "\nDone. See EXPERIMENTS.md for the paper-vs-measured discussion."

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe [--jobs N]\n\
     \  --jobs N  worker domains for parallel sections/sweeps (default and\n\
     \            cap: the recommended domain count)";
  exit 2

let () =
  let jobs =
    match Array.to_list Sys.argv with
    | [ _ ] -> Pool.default_jobs ()
    | [ _; "--jobs"; n ] -> (
      match int_of_string_opt n with Some n when n >= 1 -> n | _ -> usage ())
    | _ -> usage ()
  in
  let effective = Pool.clamp_jobs jobs in
  if effective <> jobs then
    Printf.printf "note: --jobs %d capped at %d (recommended domain count)\n" jobs
      effective;
  Pool.with_pool ~jobs:effective run_experiments

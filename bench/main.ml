(* Benchmark and experiment harness.

   Regenerates every quantitative artefact of the paper's evaluation
   (Figs. 1, 3, 4 — the running example; Figs. 5, 6 and the Sec. V-A
   numbers — the FFT streaming benchmark; Fig. 7 and the Sec. V-B
   numbers — the avionics FMS), the determinism checks behind
   Props. 2.1/4.1, plus the ablations called out in DESIGN.md; then runs
   Bechamel micro-benchmarks of every pipeline stage.

   Every section renders into its own buffer, so independent sections
   are computed concurrently on a Rt_util.Pool of domains (--jobs N) and
   printed in their fixed order; the timing-sensitive sections (the
   transitive-reduction ablation and the Bechamel micro-benchmarks) stay
   sequential.  --json FILE switches to the perf-regression harness: it
   times the hot pipeline stages at jobs=1 and jobs=N and writes the
   medians as JSON (see EXPERIMENTS.md, "Performance").

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
module Uniproc_fp = Runtime.Uniproc_fp
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

let eq_sig a b =
  List.equal
    (fun (n1, h1) (n2, h2) -> String.equal n1 n2 && List.equal V.equal h1 h2)
    a b

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
  let load = Analysis.load g in
  (* paper trick: model the arrival-management overhead as an extra job
     with a precedence edge directed to the generator *)
  let net_oh = Fppn_apps.Fft.network_with_overhead_job p in
  let d_oh =
    Derive.derive_exn
      ~wcet:(Fppn_apps.Fft.wcet_map_with_overhead p ~overhead:(ms 41))
      net_oh
  in
  let load_oh = Analysis.load d_oh.Derive.graph in
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
  let load = Analysis.load g in
  let horizon = d.Derive.hyperperiod in
  let traces =
    Fppn_apps.Fms.random_config_traces ~seed:11 ~horizon ~density:0.5 net
  in
  let traces =
    (* keep only events whose window closes inside the simulated frame *)
    let _, unhandled = Engine.sporadic_assignment net d ~frames:1 traces in
    List.map
      (fun (n, stamps) ->
        (n, List.filter (fun s -> not (List.mem (n, s) unhandled)) stamps))
      traces
  in
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
    Uniproc_fp.run net
      { (Uniproc_fp.default_config ~wcet:Fppn_apps.Fms.wcet ~horizon) with
        Uniproc_fp.sporadic = traces }
  in
  let equivalent = eq_sig (Semantics.signature zd) (Uniproc_fp.signature up) in
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
    eq_sig zd_sig (Engine.signature (Engine.run net d sched config))
  in
  let ta_check ~n_procs ~seed () =
    let sched, _ = schedule_or_fallback ~n_procs d.Derive.graph in
    let config =
      { (Engine.default_config ~frames ~n_procs ()) with
        Engine.sporadic = [ ("CoefB", coefb) ];
        inputs;
        exec = Exec_time.uniform ~seed ~min_fraction:0.25 }
    in
    eq_sig zd_sig
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
         (fun acc s -> if List.exists (eq_sig s) acc then acc else s :: acc)
         [] signatures)
  in
  let edf_sigs =
    Pool.map_list ~chunk:1 pool
      (fun seed ->
        let cfg =
          { (Runtime.Global_edf.default_config ~wcet:Fppn_apps.Fig1.wcet
               ~horizon:(ms 1000) ~n_procs:2)
            with
            Runtime.Global_edf.exec = Exec_time.uniform ~seed ~min_fraction:0.05;
            inputs }
        in
        Runtime.Global_edf.signature (Runtime.Global_edf.run net cfg))
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
        Uniproc_fp.run net (Uniproc_fp.default_config ~wcet ~horizon)
      in
      let observed = Hashtbl.create 16 in
      List.iter
        (fun (r : Uniproc_fp.record) ->
          let resp = Rat.sub r.Uniproc_fp.finished r.Uniproc_fp.released in
          let prev =
            try Hashtbl.find observed r.Uniproc_fp.process
            with Not_found -> Rat.zero
          in
          Hashtbl.replace observed r.Uniproc_fp.process (Rat.max prev resp))
        up.Uniproc_fp.records;
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
  let fms_raw = Derive.derive_exn ~reduce:false ~wcet:Fppn_apps.Fms.wcet fms_net in
  let fft_p = Fppn_apps.Fft.default_params in
  let fft_net = Fppn_apps.Fft.network fft_p in
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
               (Rt_util.Digraph.transitive_reduction (Graph.dag fms_raw.Derive.graph))));
      Test.make ~name:"asap-alap-load.fms"
        (Staged.stage (fun () ->
             let times = Analysis.asap_alap fms_d.Derive.graph in
             ignore (Analysis.load ~times fms_d.Derive.graph)));
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
    ]
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
(* Perf-regression harness (--json)                                     *)
(* ------------------------------------------------------------------ *)

(* Hot pipeline stages timed at jobs=1 and jobs=N; medians land in a
   JSON file so successive commits can be diffed.  The jobs=1 numbers
   double as the Rat-sensitive scalar baselines (list scheduling, exact
   search and the engine all run on Rat arithmetic). *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted -> List.nth sorted (List.length sorted / 2)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let jfloat f = if Float.is_finite f then Printf.sprintf "%.6f" f else "null"

let jvariant ~jobs (runs, med) =
  Printf.sprintf "{\"jobs\": %d, \"runs\": [%s], \"median\": %s}" jobs
    (String.concat ", " (List.map jfloat runs))
    (jfloat med)

(* variant with the sample distribution spelled out (min and
   interquartile range) — used by the engine stages, whose 5x
   run-to-run spreads made a bare median unreviewable *)
let jdist ~jobs (runs, med) =
  let sorted = List.sort compare runs in
  let nth i = List.nth sorted i in
  let len = List.length sorted in
  let minv = if len = 0 then nan else nth 0 in
  let iqr = if len < 4 then nan else nth (3 * len / 4) -. nth (len / 4) in
  Printf.sprintf
    "{\"jobs\": %d, \"runs\": [%s], \"median\": %s, \"min\": %s, \"iqr\": %s}"
    jobs
    (String.concat ", " (List.map jfloat runs))
    (jfloat med) (jfloat minv) (jfloat iqr)

(* run-to-run spread of a sample list, as a fraction of the median *)
let spread (runs, med) =
  match runs with
  | [] -> nan
  | r :: rest ->
    let mn = List.fold_left Float.min r rest
    and mx = List.fold_left Float.max r rest in
    if med > 0.0 then (mx -. mn) /. med else nan

let safe_div a b = if b > 0.0 then a /. b else nan

(* --- JSON reader for --gate -------------------------------------------- *)
(* The baseline file is read back through the shared writer/reader the
   harness also emits with, so the gate can never disagree with the
   emitter about escaping or number formats. *)

module Json = Rt_util.Json

(* How a stage's numbers may be compared across harness runs:
   rates (cases/s, jobs/s) are budget-invariant, [`Seconds_stable]
   stages time the same workload under --smoke and full runs, and
   [`Seconds_budgeted] stages shrink their workload under --smoke, so
   their absolute times only compare against a baseline of the same
   kind. *)
let run_gate ~smoke ~alloc
    ~(stages :
       (string
       * [ `Rate | `Seconds_stable | `Seconds_budgeted ]
       * (float list * float))
       list) baseline_path =
  let text =
    try In_channel.with_open_text baseline_path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "gate: cannot read baseline: %s\n" msg;
      exit 2
  in
  let base =
    try Json.parse text
    with Json.Malformed msg ->
      Printf.eprintf "gate: %s is not valid JSON: %s\n" baseline_path msg;
      exit 2
  in
  let base_smoke =
    Option.bind (Json.member "smoke" base) Json.as_bool
    |> Option.value ~default:false
  in
  let base_stages =
    match Json.member "stages" base with Some (Json.Arr l) -> l | _ -> []
  in
  let find_stage name =
    List.find_opt
      (fun s ->
        match Option.bind (Json.member "name" s) Json.as_string with
        | Some n -> String.equal n name
        | None -> false)
      base_stages
  in
  let tolerance = 0.20 in
  (* The host CPU settles into one of two persistent speed modes ~25%
     apart, and the engine stage resolves in microseconds — far too
     fast to straddle both modes — so a fast-mode baseline read back
     in slow mode sits right at a 0.80x ratio no matter how stable the
     per-mode median is.  That stage gets headroom for the mode delta;
     the deterministic allocation check below still catches the
     classic engine regressions (allocation creep) at any speed. *)
  let tolerance_for name =
    if
      String.equal name "engine-sim-fig1-m2"
      || String.equal name "engine-sharded-m4"
    then 0.35
    else tolerance
  in
  let failures = ref 0 in
  Printf.printf "gate: comparing against %s (tolerance %d%%)\n" baseline_path
    (int_of_float (tolerance *. 100.0));
  List.iter
    (fun (name, kind, (runs, _median)) ->
      let comparable =
        match kind with
        | `Rate | `Seconds_stable -> true
        | `Seconds_budgeted -> base_smoke = smoke
      in
      match find_stage name with
      | None -> Printf.printf "  %-24s SKIP (not in baseline)\n" name
      | Some _ when not comparable ->
        Printf.printf "  %-24s SKIP (budget differs between smoke and full runs)\n"
          name
      | Some s -> (
        let base_median =
          Option.bind (Json.member "jobs1" s) (Json.member "median")
          |> Fun.flip Option.bind Json.as_float
        in
        match base_median with
        | None | Some 0.0 ->
          Printf.printf "  %-24s SKIP (no jobs1 median in baseline)\n" name
        | Some b ->
          (* median, not best-of: stages now pin their iteration counts
             and warm up before timing, so the median is stable and a
             best-of comparison would only hide real regressions *)
          let higher = kind = `Rate in
          let m = median runs in
          let ratio = if higher then m /. b else b /. m in
          let tol = tolerance_for name in
          let ok = ratio >= 1.0 -. tol in
          if not ok then incr failures;
          Printf.printf "  %-24s %s baseline %.3f, median %.3f (%.2fx%s)\n" name
            (if ok then "ok  " else "FAIL")
            b m (m /. b)
            (if tol <> tolerance then
               Printf.sprintf ", tolerance %d%%" (int_of_float (tol *. 100.0))
             else "")))
    stages;
  (* allocation regression: the engine's steady-frame loop must not
     allocate — measured on a network whose bodies allocate nothing, so
     the budget only covers measurement crumbs, not real allocation *)
  let steady_frame_bytes, alloc_budget = alloc in
  let alloc_ok = steady_frame_bytes <= alloc_budget in
  if not alloc_ok then incr failures;
  Printf.printf "  %-24s %s %.1f bytes/steady frame (budget %.0f)\n"
    "engine-allocation"
    (if alloc_ok then "ok  " else "FAIL")
    steady_frame_bytes alloc_budget;
  if !failures > 0 then begin
    Printf.printf "gate: %d check(s) failed (tolerance %d%%)\n" !failures
      (int_of_float (tolerance *. 100.0));
    exit 1
  end
  else print_endline "gate: no perf regression"

let run_perf ~pool ~smoke ?gate ~jobs_requested path =
  let jobs = Pool.jobs pool in
  let reps = if smoke then 1 else 3 in
  Printf.printf "perf harness: %d repetition(s) per stage, jobs=1 vs jobs=%d%s\n"
    reps jobs
    (if smoke then " (smoke)" else "");
  let measure_n n f =
    let rec go i acc = if i >= n then List.rev acc else go (i + 1) (f () :: acc) in
    let runs = go 0 [] in
    (runs, median runs)
  in
  let measure f = measure_n reps f in
  (* Rate stages feed the regression gate, so they keep the same
     workload in smoke and full modes (their rates stay comparable
     across baselines) and always sample three runs — the gate takes
     the best, which a 1-CPU container's noise would otherwise fail. *)
  let measure_rate f = measure_n 3 f in
  (* stage 1: fuzz campaign throughput, cases/s from the report's own
     wall clock — the same timing source the report exposes *)
  let fuzz_config = { Fppn_fuzz.Campaign.default_config with budget = 40 } in
  let last1 = ref None and lastn = ref None in
  let fuzz_rate keep jobs =
    let r = Fppn_fuzz.Campaign.run ~jobs fuzz_config in
    keep := Some r;
    Fppn_fuzz.Report.cases_per_s r
  in
  let fuzz1 = measure_rate (fun () -> fuzz_rate last1 1) in
  let steals0 = Pool.steals () in
  let fuzzn = measure (fun () -> fuzz_rate lastn jobs) in
  (* steal count across the jobsN runs: proof the work-stealing pool
     actually redistributed cases, not just that N domains existed *)
  let fuzz_steals = Pool.steals () - steals0 in
  let fuzz_deterministic =
    match (!last1, !lastn) with
    | Some a, Some b ->
      String.equal
        (Fppn_fuzz.Report.to_json (Fppn_fuzz.Report.normalize_timing a))
        (Fppn_fuzz.Report.to_json (Fppn_fuzz.Report.normalize_timing b))
    | _ -> false
  in
  Printf.printf
    "  fuzz-campaign: %.1f cases/s (jobs=1) vs %.1f cases/s (jobs=%d), %s, \
     %d steals\n"
    (snd fuzz1) (snd fuzzn) jobs
    (if fuzz_deterministic then "reports identical" else "REPORTS DIFFER")
    fuzz_steals;
  (* stage 2: heuristic-portfolio list scheduling on the 812-job FMS *)
  let fms_g =
    (Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet (Fppn_apps.Fms.reduced ()))
      .Derive.graph
  in
  let auto1 =
    measure (fun () ->
        snd (timed (fun () -> ignore (List_scheduler.auto ~n_procs:2 fms_g))))
  in
  let auton =
    measure (fun () ->
        snd (timed (fun () -> ignore (List_scheduler.auto ~pool ~n_procs:2 fms_g))))
  in
  Printf.printf "  list-auto-fms-m2: %.3f s (jobs=1) vs %.3f s (jobs=%d)\n"
    (snd auto1) (snd auton) jobs;
  (* stage 3: exact branch and bound on a random graph *)
  let exact_g =
    let params =
      { Fppn_apps.Randgen.default_params with
        seed = 101; n_periodic = 4; n_sporadic = 1 }
    in
    let net = Fppn_apps.Randgen.network params in
    let wcet =
      Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 8) (Derive.const_wcet Rat.one)
        net
    in
    (Derive.derive_exn ~wcet net).Derive.graph
  in
  let node_budget = if smoke then 20_000 else 300_000 in
  let exact1 =
    measure (fun () ->
        snd
          (timed (fun () ->
               ignore (Sched.Exact.solve ~node_budget ~n_procs:2 exact_g))))
  in
  let exactn =
    measure (fun () ->
        snd
          (timed (fun () ->
               ignore (Sched.Exact.solve ~pool ~node_budget ~n_procs:2 exact_g))))
  in
  Printf.printf "  exact-solve-random-m2: %.3f s (jobs=1) vs %.3f s (jobs=%d)\n"
    (snd exact1) (snd exactn) jobs;
  (* stage 4: engine simulation throughput (jobs executed per second)
     through the compiled tick core — constant durations and no
     sporadic stamps, so the steady-frame replay path is exercised.
     Each sample pins the iteration count and times the whole batch
     after one unmeasured warmup run (which compiles the plan and
     populates the engine pools): single 20µs runs measured one clock
     pair at a time produced 5x run-to-run spreads on this box. *)
  let fig1 = Fppn_apps.Fig1.network () in
  let fig1_d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet fig1 in
  let fig1_sched, _ = schedule_or_fallback ~n_procs:2 fig1_d.Derive.graph in
  let frames = 40 in
  let engine_iters = 32 in
  let engine_cfg = Engine.default_config ~frames ~n_procs:2 () in
  let engine_rate () =
    ignore (Engine.run fig1 fig1_d fig1_sched engine_cfg);
    let executed = ref 0 in
    let (), dt =
      timed (fun () ->
          for _ = 1 to engine_iters do
            let r = Engine.run fig1 fig1_d fig1_sched engine_cfg in
            executed := !executed + r.Engine.stats.Exec_trace.executed
          done)
    in
    safe_div (float_of_int !executed) dt
  in
  let engine1 = measure_n 5 engine_rate in
  (* allocation probe for the gate: bytes allocated per executed job on
     the fig1 workload, and the engine's own steady-frame allocation
     measured on a network whose job bodies allocate nothing — the
     replay loop is required to add zero bytes per frame on top of
     whatever the bodies themselves allocate *)
  let alloc_per_run net d sched cfg =
    ignore (Engine.run net d sched cfg);
    let k = 100 in
    let a0 = Gc.allocated_bytes () in
    for _ = 1 to k do
      ignore (Engine.run net d sched cfg)
    done;
    (Gc.allocated_bytes () -. a0) /. float_of_int k
  in
  let engine_bytes_per_job =
    let per_run = alloc_per_run fig1 fig1_d fig1_sched engine_cfg in
    let executed =
      (Engine.run fig1 fig1_d fig1_sched engine_cfg).Engine.stats
        .Exec_trace.executed
    in
    per_run /. float_of_int (max 1 executed)
  in
  let steady_frame_bytes =
    let noop = Fppn_apps.Alloc_probe.network () in
    let d = Derive.derive_exn ~wcet:Fppn_apps.Alloc_probe.wcet noop in
    let sched, _ = schedule_or_fallback ~n_procs:2 d.Derive.graph in
    let at frames =
      alloc_per_run noop d sched (Engine.default_config ~frames ~n_procs:2 ())
    in
    let lo = 4 and hi = 40 in
    (at hi -. at lo) /. float_of_int (hi - lo)
  in
  Printf.printf
    "  engine-sim-fig1-m2: %.0f jobs/s (jobs=1, %d frames x %d iterations, \
     %.1f bytes/job, %.1f engine bytes/steady frame)\n"
    (snd engine1) frames engine_iters engine_bytes_per_job steady_frame_bytes;
  (* stage 5: observability overhead on the same engine workload —
     tracing fully off, spans only, spans + metrics.  The off variant
     re-times the exact engine1 configuration inside this run, so the
     three variants are apples-to-apples regardless of machine noise
     between runs.  Not gated: the overhead ratio is informational.
     Best-of-5 with median reporting: the sub-second engine runs showed
     up to 5x run-to-run variance with 3 samples (ROADMAP item 4), and
     the reported overhead percentages were mush.  Five runs cost
     little here and the median is what the JSON exposes. *)
  let measure_stable f = measure_n 5 f in
  Fppn_obs.Trace.set_enabled false;
  Fppn_obs.Metrics.set_enabled false;
  let trace_off = measure_stable engine_rate in
  Fppn_obs.Trace.set_enabled true;
  let trace_spans =
    measure_stable (fun () ->
        Fppn_obs.Trace.reset ();
        engine_rate ())
  in
  Fppn_obs.Metrics.set_enabled true;
  let trace_full =
    measure_stable (fun () ->
        Fppn_obs.Trace.reset ();
        engine_rate ())
  in
  Fppn_obs.Trace.set_enabled false;
  Fppn_obs.Metrics.set_enabled false;
  Fppn_obs.Trace.reset ();
  Fppn_obs.Metrics.reset ();
  let pct_slower v = 100.0 *. (1.0 -. safe_div v (snd trace_off)) in
  Printf.printf
    "  engine-trace-overhead: %.0f jobs/s off, %.0f spans (%+.1f%%), %.0f \
     spans+metrics (%+.1f%%), spread %.0f%%/%.0f%%/%.0f%%\n"
    (snd trace_off) (snd trace_spans)
    (-.pct_slower (snd trace_spans))
    (snd trace_full)
    (-.pct_slower (snd trace_full))
    (100.0 *. spread trace_off)
    (100.0 *. spread trace_spans)
    (100.0 *. spread trace_full);
  (* stage 6: multi-application co-scheduling (heuristic portfolio over
     the fms+automotive pair on M=4) — throughput of both variants, plus
     the makespan each one achieves so BENCH.json tracks schedule
     quality alongside speed *)
  let co_apps =
    [
      { Sched.Cosched.app_name = "fms"; app_priority = 0; graph = fms_g };
      { Sched.Cosched.app_name = "automotive"; app_priority = 1;
        graph =
          (Derive.derive_exn ~wcet:Fppn_apps.Automotive.wcet
             (Fppn_apps.Automotive.network ()))
            .Derive.graph };
    ]
  in
  let co_result variant =
    match snd (Sched.Cosched.auto ~variant ~n_procs:4 co_apps) with
    | Some a -> a.Sched.Cosched.result
    | None -> Sched.Cosched.schedule_with ~variant ~n_procs:4 co_apps
  in
  let co_stage variant =
    let t1 =
      measure (fun () ->
          snd
            (timed (fun () ->
                 ignore (Sched.Cosched.auto ~variant ~n_procs:4 co_apps))))
    in
    let tn =
      measure (fun () ->
          snd
            (timed (fun () ->
                 ignore (Sched.Cosched.auto ~pool ~variant ~n_procs:4 co_apps))))
    in
    (t1, tn, co_result variant)
  in
  let cofair1, cofairn, cofair = co_stage Sched.Cosched.Fair in
  let coslot1, coslotn, coslot = co_stage Sched.Cosched.Slots in
  let co_extra (r : Sched.Cosched.t) =
    [
      Printf.sprintf "\"makespan_ms\": %s"
        (jfloat (Rat.to_float r.Sched.Cosched.makespan));
      Printf.sprintf "\"feasible\": %b" r.Sched.Cosched.feasible;
    ]
  in
  Printf.printf
    "  cosched-fair-m4: %.3f s (jobs=1) vs %.3f s (jobs=%d), makespan %g ms\n"
    (snd cofair1) (snd cofairn) jobs
    (Rat.to_float cofair.Sched.Cosched.makespan);
  Printf.printf
    "  cosched-slots-m4: %.3f s (jobs=1) vs %.3f s (jobs=%d), makespan %g ms\n"
    (snd coslot1) (snd coslotn) jobs
    (Rat.to_float coslot.Sched.Cosched.makespan);
  (* stage 7: the compiled core on a large Randgen network (2·10^4
     periodic processes, M=4), reported as jobs/s like stage 4.  The
     stage keeps the name it had when it also timed a sharded engine.
     The wcet scale keeps every duration at one tick of the network's
     timebase, so each frame fits its 100 ms budget on 4 processors. *)
  let big_procs = 4 in
  let big_n_periodic = 20_000 in
  let big_net, big_d, big_sched =
    let params =
      { Fppn_apps.Randgen.default_params with
        seed = 7;
        n_periodic = big_n_periodic;
        n_sporadic = 0;
        periods = [ 100 ];
        channel_density = 3e-4 }
    in
    let net = Fppn_apps.Randgen.network params in
    let wcet =
      Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 100_000)
        (Derive.const_wcet Rat.one) net
    in
    let d = Derive.derive_exn ~wcet net in
    (* the heuristic portfolio would price every priority order on a
       10^4-job graph; one ALAP/EDF pass is enough for a throughput
       workload *)
    let sched =
      List_scheduler.schedule_with ~heuristic:Priority.Alap_edf
        ~n_procs:big_procs d.Derive.graph
    in
    (net, d, sched)
  in
  let big_iters = 4 in
  let big_cfg =
    Engine.default_config ~frames:4 ~n_procs:big_procs ()
  in
  let big_rate run =
    ignore (run ());
    let executed = ref 0 in
    let (), dt =
      timed (fun () ->
          for _ = 1 to big_iters do
            let r = run () in
            executed := !executed + r.Engine.stats.Exec_trace.executed
          done)
    in
    safe_div (float_of_int !executed) dt
  in
  let big1 =
    measure_rate (fun () ->
        big_rate (fun () -> Engine.run big_net big_d big_sched big_cfg))
  in
  Printf.printf "  engine-sharded-m4: %.0f jobs/s (M=%d, %d processes)\n"
    (snd big1) big_procs big_n_periodic;
  (* stage 8: multi-tenant service throughput — 200 small tenants
     co-resident on M=4 behind MPR admission, scripted sporadic events
     pushed through the MPSC queue each epoch, rate = tenant engine
     jobs per second across the epoch loop.  Same workload in smoke and
     full modes (rate stages stay gate-comparable). *)
  let svc_tenants = 200 in
  let svc_procs = 4 in
  let svc =
    Fppn_service.Service.create ~queue_capacity:8192 ~procs:svc_procs
      ~frames:2 ()
  in
  let svc_rejected = ref 0 in
  for i = 0 to svc_tenants - 1 do
    let params =
      {
        Fppn_apps.Randgen.seed = 1000 + (7919 * i);
        n_periodic = 2;
        n_sporadic = 1;
        periods = [ 50; 100 ];
        channel_density = 0.4;
        max_burst = 2;
      }
    in
    let net = Fppn_apps.Randgen.network params in
    let wcet =
      Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 2000)
        (Derive.const_wcet Rat.one) net
    in
    match
      Fppn_service.Service.register svc ~name:(Printf.sprintf "t%03d" i) ~wcet
        net
    with
    | Ok _ -> ()
    | Error _ -> incr svc_rejected
  done;
  let svc_admitted = List.length (Fppn_service.Service.tenants svc) in
  let svc_targets =
    Array.of_list
      (List.filter_map
         (fun ten ->
           match Fppn_service.Tenant.sporadic_events ten with
           | [] -> None
           | sp ->
             let hp_ms =
               int_of_float
                 (Rat.to_float (Fppn_service.Tenant.hyperperiod ten))
             in
             Some
               ( ten.Fppn_service.Tenant.name,
                 Array.of_list (List.map fst sp),
                 max 1 (hp_ms * 2) ))
         (Fppn_service.Service.tenants svc))
  in
  let svc_epoch_events = 1024 in
  let svc_submit seed =
    let prng = Rt_util.Prng.create seed in
    for _ = 1 to svc_epoch_events do
      let tname, sp_names, horizon_ms =
        svc_targets.(Rt_util.Prng.int prng (Array.length svc_targets))
      in
      let process = sp_names.(Rt_util.Prng.int prng (Array.length sp_names)) in
      let stamp = Rat.of_int (Rt_util.Prng.int prng horizon_ms) in
      ignore (Fppn_service.Service.submit svc ~tenant:tname ~process ~stamp)
    done
  in
  let svc_iters = 4 in
  let svc_events_consumed = ref 0 in
  let svc_rate pool_opt =
    (* one unmeasured warmup epoch compiles every tenant's engine plan *)
    svc_submit 17;
    ignore (Fppn_service.Service.run_epoch ?pool:pool_opt svc);
    let jobs_done = ref 0 in
    let (), dt =
      timed (fun () ->
          for e = 1 to svc_iters do
            svc_submit (31 * e);
            let r = Fppn_service.Service.run_epoch ?pool:pool_opt svc in
            jobs_done := !jobs_done + r.Fppn_service.Service.jobs_executed;
            svc_events_consumed :=
              !svc_events_consumed + r.Fppn_service.Service.events_consumed
          done)
    in
    safe_div (float_of_int !jobs_done) dt
  in
  let svc1 = measure_rate (fun () -> svc_rate None) in
  let svcn = measure_rate (fun () -> svc_rate (Some pool)) in
  let svc_oracle =
    List.for_all snd (Fppn_service.Service.verify ~pool svc)
  in
  Printf.printf
    "  service-mixed-m4: %.0f jobs/s (jobs=1) vs %.0f jobs/s (jobs=%d), %d/%d \
     tenants admitted, oracle %s\n"
    (snd svc1) (snd svcn) jobs svc_admitted svc_tenants
    (if svc_oracle then "ok" else "MISMATCH");
  let stage ~name ~metric ~higher_is_better ?speedup ?extra variants =
    let fields =
      [
        Printf.sprintf "\"name\": \"%s\"" name;
        Printf.sprintf "\"metric\": \"%s\"" metric;
        Printf.sprintf "\"higher_is_better\": %b" higher_is_better;
      ]
      @ List.map (fun (key, v) -> Printf.sprintf "\"%s\": %s" key v) variants
      @ (match speedup with
        | None -> []
        | Some s -> [ Printf.sprintf "\"speedup\": %s" (jfloat s) ])
      @ match extra with None -> [] | Some kvs -> kvs
    in
    "    {" ^ String.concat ", " fields ^ "}"
  in
  let json =
    String.concat "\n"
      [
        "{";
        "  \"schema\": \"fppn-bench/1\",";
        Printf.sprintf "  \"smoke\": %b," smoke;
        Printf.sprintf "  \"jobs\": %d," jobs;
        Printf.sprintf "  \"jobs_requested\": %d," jobs_requested;
        Printf.sprintf "  \"recommended_domains\": %d," (Pool.default_jobs ());
        Printf.sprintf "  \"repetitions\": %d," reps;
        "  \"stages\": [";
        String.concat ",\n"
          [
            stage ~name:"fuzz-campaign" ~metric:"cases_per_s"
              ~higher_is_better:true
              ~speedup:(safe_div (snd fuzzn) (snd fuzz1))
              ~extra:
                [
                  Printf.sprintf "\"deterministic\": %b" fuzz_deterministic;
                  Printf.sprintf "\"steals\": %d" fuzz_steals;
                ]
              [
                ("jobs1", jvariant ~jobs:1 fuzz1);
                ("jobsN", jvariant ~jobs fuzzn);
              ];
            stage ~name:"list-auto-fms-m2" ~metric:"seconds"
              ~higher_is_better:false
              ~speedup:(safe_div (snd auto1) (snd auton))
              [
                ("jobs1", jvariant ~jobs:1 auto1);
                ("jobsN", jvariant ~jobs auton);
              ];
            stage ~name:"exact-solve-random-m2" ~metric:"seconds"
              ~higher_is_better:false
              ~speedup:(safe_div (snd exact1) (snd exactn))
              [
                ("jobs1", jvariant ~jobs:1 exact1);
                ("jobsN", jvariant ~jobs exactn);
              ];
            stage ~name:"engine-sim-fig1-m2" ~metric:"jobs_per_s"
              ~higher_is_better:true
              ~extra:
                [
                  Printf.sprintf "\"iterations\": %d" engine_iters;
                  Printf.sprintf "\"bytes_per_job\": %s"
                    (jfloat engine_bytes_per_job);
                  Printf.sprintf "\"steady_frame_bytes\": %s"
                    (jfloat steady_frame_bytes);
                ]
              [ ("jobs1", jdist ~jobs:1 engine1) ];
            stage ~name:"engine-trace-overhead" ~metric:"jobs_per_s"
              ~higher_is_better:true
              ~extra:
                [
                  Printf.sprintf "\"iterations\": %d" engine_iters;
                  Printf.sprintf "\"spread_off\": %s"
                    (jfloat (spread trace_off));
                ]
              [
                ("off", jdist ~jobs:1 trace_off);
                ("spans", jdist ~jobs:1 trace_spans);
                ("spans_metrics", jdist ~jobs:1 trace_full);
              ];
            stage ~name:"cosched-fair-m4" ~metric:"seconds"
              ~higher_is_better:false
              ~speedup:(safe_div (snd cofair1) (snd cofairn))
              ~extra:(co_extra cofair)
              [
                ("jobs1", jvariant ~jobs:1 cofair1);
                ("jobsN", jvariant ~jobs cofairn);
              ];
            stage ~name:"cosched-slots-m4" ~metric:"seconds"
              ~higher_is_better:false
              ~speedup:(safe_div (snd coslot1) (snd coslotn))
              ~extra:(co_extra coslot)
              [
                ("jobs1", jvariant ~jobs:1 coslot1);
                ("jobsN", jvariant ~jobs coslotn);
              ];
            stage ~name:"engine-sharded-m4" ~metric:"jobs_per_s"
              ~higher_is_better:true
              ~extra:
                [
                  Printf.sprintf "\"processes\": %d" big_n_periodic;
                  Printf.sprintf "\"iterations\": %d" big_iters;
                ]
              [ ("jobs1", jdist ~jobs:1 big1) ];
            stage ~name:"service-mixed-m4" ~metric:"jobs_per_s"
              ~higher_is_better:true
              ~speedup:(safe_div (snd svcn) (snd svc1))
              ~extra:
                [
                  Printf.sprintf "\"tenants\": %d" svc_tenants;
                  Printf.sprintf "\"admitted\": %d" svc_admitted;
                  Printf.sprintf "\"rejected\": %d" !svc_rejected;
                  Printf.sprintf "\"procs\": %d" svc_procs;
                  Printf.sprintf "\"epochs_per_sample\": %d" svc_iters;
                  Printf.sprintf "\"events_per_epoch\": %d" svc_epoch_events;
                  Printf.sprintf "\"events_consumed\": %d" !svc_events_consumed;
                  Printf.sprintf "\"oracle\": %b" svc_oracle;
                ]
              [
                ("jobs1", jdist ~jobs:1 svc1);
                ("jobsN", jdist ~jobs svcn);
              ];
          ];
        "  ]";
        "}";
        "";
      ]
  in
  Runtime.Export.write_file path json;
  Printf.printf "wrote %s\n" path;
  Option.iter
    (run_gate ~smoke
       ~alloc:(steady_frame_bytes, 64.0)
       ~stages:
         [
           ("fuzz-campaign", `Rate, fuzz1);
           ("list-auto-fms-m2", `Seconds_stable, auto1);
           ("exact-solve-random-m2", `Seconds_budgeted, exact1);
           ("engine-sim-fig1-m2", `Rate, engine1);
           ("cosched-fair-m4", `Seconds_stable, cofair1);
           ("cosched-slots-m4", `Seconds_stable, coslot1);
           ("engine-sharded-m4", `Rate, big1);
           ("service-mixed-m4", `Rate, svc1);
         ])
    gate

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe [--jobs N] [--json FILE] [--smoke] [--gate BASELINE]\n\
     \  --jobs N        worker domains for parallel sections/sweeps\n\
     \                  (default: recommended domain count)\n\
     \  --force-domains do not cap --jobs at the recommended domain count\n\
     \                  (the default: rate stages must measure real\n\
     \                  multi-domain pools, even oversubscribed)\n\
     \  --cap-domains   cap --jobs at the recommended domain count\n\
     \  --json FILE     run the perf-regression harness and write FILE\n\
     \  --smoke         tiny budgets / single repetition (with --json)\n\
     \  --gate BASELINE after --json, fail if any stage regressed more\n\
     \                  than 20% against the BASELINE json";
  exit 2

let () =
  let jobs = ref (Pool.default_jobs ()) in
  let force_domains = ref true in
  let json_out = ref None in
  let smoke = ref false in
  let gate = ref None in
  let argc = Array.length Sys.argv in
  let rec parse i =
    if i < argc then
      match Sys.argv.(i) with
      | "--jobs" when i + 1 < argc ->
        (match int_of_string_opt Sys.argv.(i + 1) with
        | Some n when n >= 1 -> jobs := n
        | _ -> usage ());
        parse (i + 2)
      | "--json" when i + 1 < argc ->
        json_out := Some Sys.argv.(i + 1);
        parse (i + 2)
      | "--force-domains" ->
        force_domains := true;
        parse (i + 1)
      | "--cap-domains" ->
        force_domains := false;
        parse (i + 1)
      | "--smoke" ->
        smoke := true;
        parse (i + 1)
      | "--gate" when i + 1 < argc ->
        gate := Some Sys.argv.(i + 1);
        parse (i + 2)
      | _ -> usage ()
  in
  parse 1;
  let jobs_requested = !jobs in
  (* rate stages commit their jobsN numbers to BENCH.json, and those
     numbers are meaningless if the pool was silently capped to one
     domain — so honoring --jobs even past the recommended domain
     count is the default, and --cap-domains opts back into capping *)
  let effective =
    if !force_domains then max 1 jobs_requested
    else Pool.clamp_jobs jobs_requested
  in
  if effective <> jobs_requested then
    Printf.printf "note: --jobs %d capped at %d (recommended domain count)\n"
      jobs_requested effective
  else if !force_domains && effective > Pool.clamp_jobs effective then
    Printf.printf
      "note: --force-domains: running %d domains on %d recommended\n" effective
      (Pool.default_jobs ());
  Pool.with_pool ~jobs:effective (fun pool ->
      match !json_out with
      | Some path -> run_perf ~pool ~smoke:!smoke ?gate:!gate ~jobs_requested path
      | None -> run_experiments pool)

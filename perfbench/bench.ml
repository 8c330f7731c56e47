(* The layered benchmark of the FPPN flow.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--commit C] [--sources DIGEST]

   --trace 0 sets up the workload, runs its closed loop for S seconds
   with tracing off, spreading repeated set-ups and the Sec. V-A frame
   probe over the loop, checks every output, and prints the end-to-end
   metrics, timed on the host-speed calibrated clock of calib.ml.
   --trace 1 sets up once and runs a fixed amount of work with spans
   and metrics on, then the same work again untraced, and prints the
   per-layer metrics: layer self times that add up to the traced wall
   time with an explicit unattributed_s, exact counters, and the
   tracing slowdown.

   The last line of standard output is the JSON result; the line before
   it records the host.  The exit code is 1 when any output is wrong. *)

open Common
module Json = Rt_util.Json
module Pool = Rt_util.Pool
module Metrics = Fppn_obs.Metrics

let workloads =
  [
    Workload.W Toolchain.spec;
    Workload.W Periodic.spec;
    Workload.W Sporadic.spec;
    Workload.W Service_load.spec;
  ]

let name_of (Workload.W w) = w.Workload.name

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let no_harvest _ = ()
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Side work spread over the timed phase: frame-probe rounds and
   repeated set-ups (whose state is dropped), each taking its share of
   the phase.  The probe runs in bursts of [probe_burst] rounds, each
   after a compaction so it does not pay for the workload's garbage,
   after any top-level operation of a step (the workload's [harvest]
   points), off the calibrated clock so the step's timings leave it
   out.  Many short bursts let its figures mix the host's speed spells
   the way the steps do.  A probe run in one window at the start of the
   run instead, in the fresh process, followed whatever spell the window
   fell in: its figures spread by up to 0.3 over ten runs where the
   steps spread by 0.03; bursts only between steps were too few on
   toolchain, whose step is a 3 s pass.  Set-ups run between steps and
   end with a compaction, so the next step does not pay for their
   garbage. *)
let probe_share = 0.08
let probe_burst = 50
let min_probe_rounds = 200
let setup_share = 0.1
let min_setups = 3

let untraced (Workload.W w) ~seed ~seconds =
  let acc = new_acc () in
  let deadline = Calib.real_ns () + int_of_float (seconds *. 1e9) in
  Calib.start ();
  let setup () =
    Gc.compact ();
    Calib.tick ();
    let st, dt = timed (fun () -> w.Workload.setup ~seed acc) in
    acc.setup_ns <- sample dt :: acc.setup_ns;
    st
  in
  let st = setup () in
  let probe = Frame_probe.create () in
  let probe_ns = ref 0 and setup_ns = ref 0 in
  let run_probe () =
    Calib.tick ();
    let (), dt = timed (fun () -> Frame_probe.round probe) in
    probe_ns := !probe_ns + dt
  in
  let t0 = now_ns () in
  let behind share spent = float_of_int spent < share *. float_of_int (now_ns () - t0) in
  let harvest _ =
    Calib.tick ();
    while behind probe_share !probe_ns do
      Calib.off_clock (fun () ->
          Gc.compact ();
          for _ = 1 to probe_burst do
            run_probe ()
          done)
    done
  in
  let run_setup () =
    let (), dt =
      timed (fun () ->
          w.Workload.teardown (setup ());
          Gc.compact ())
    in
    setup_ns := !setup_ns + dt
  in
  let rates = ref [] in
  let steps = ref 0 in
  while !steps < w.Workload.min_steps || Calib.real_ns () < deadline do
    let jobs0 = acc.jobs and exec0 = acc.exec_ns in
    let (), dt = timed (fun () -> w.Workload.step st acc ~harvest) in
    acc.step_ns <- sample dt :: acc.step_ns;
    rates := (ratio (acc.jobs - jobs0) (acc.exec_ns - exec0) *. 1e9) :: !rates;
    incr steps;
    harvest `Op;
    while behind setup_share !setup_ns do
      run_setup ()
    done
  done;
  while Frame_probe.rounds probe < min_probe_rounds do
    run_probe ()
  done;
  while List.length acc.setup_ns < min_setups do
    run_setup ()
  done;
  let first_us, steady_us = Frame_probe.result probe in
  w.Workload.check st acc;
  let makespan = w.Workload.makespan_ms st in
  w.Workload.teardown st;
  let epochs = if acc.epoch_ns = [] then acc.step_ns else acc.epoch_ns in
  let admits = if acc.admit_ns = [] then Frame_probe.admit_samples probe else acc.admit_ns in
  let pooled l = median (List.map (fun (_, ns) -> float_of_int ns) l) in
  let samples =
    [
      ("epoch", List.length epochs);
      ("admit", List.length admits);
      ("plan", List.length acc.plan_ns);
      ("setup", List.length acc.setup_ns);
      ("probe", Frame_probe.rounds probe);
      ("calibrations", Calib.calibrations ());
    ]
  in
  ( acc,
    samples,
    [
      ("setup_s", pooled acc.setup_ns /. 1e9, "s");
      ("plan_s", pooled acc.plan_ns /. 1e9, "s");
      ("makespan_ms", makespan, "ms");
      ("jobs_per_s", median !rates, "1/s");
      ("first_frame_us", first_us, "us");
      ("steady_frame_us", steady_us, "us");
      ("epoch_ms_p50", blocked 0.5 epochs /. 1e6, "ms");
      ("epoch_ms_p95", blocked 0.95 epochs /. 1e6, "ms");
      ("admit_ms_p50", blocked 0.5 admits /. 1e6, "ms");
      ("admit_ms_p95", blocked 0.95 admits /. 1e6, "ms");
      ("heap_peak_mb", heap_peak_mb (), "MB");
    ] )

let traced (Workload.W w) ~seed =
  let acc = new_acc () in
  let steals0 = Pool.steals () in
  let lt = Layers.start () in
  let st = w.Workload.setup ~seed acc in
  Layers.harvest lt;
  let setup_window = lt.Layers.window_ns and jobs0 = acc.jobs in
  let harvest op = Layers.harvest ~epoch:(op = `Epoch) lt in
  for _ = 1 to w.Workload.traced_steps do
    w.Workload.step st acc ~harvest;
    Layers.harvest lt
  done;
  Layers.stop lt;
  let steals = Pool.steals () - steals0 in
  let counter name = Metrics.counter_value (Metrics.counter name) in
  let engine_jobs = counter "engine.jobs_executed" in
  let queue_pushes = counter "engine.queue_pushes" in
  let xshard = counter "engine.xshard_messages" in
  let fallbacks = counter "engine.shard_fallbacks" in
  let traced_per_job =
    ratio (lt.Layers.window_ns - setup_window) (acc.jobs - jobs0)
  in
  (* the same work again, untraced: the tracing slowdown and the
     allocation rate *)
  let jobs1 = acc.jobs and minor0 = Gc.minor_words () in
  let (), untraced_ns =
    timed (fun () ->
        for _ = 1 to w.Workload.traced_steps do
          w.Workload.step st acc ~harvest:no_harvest
        done)
  in
  let minor = Gc.minor_words () -. minor0 in
  let untraced_jobs = acc.jobs - jobs1 in
  w.Workload.check st acc;
  w.Workload.teardown st;
  let calls name = Layers.get lt.Layers.calls name in
  let parts, unattributed, wall = Layers.closure lt in
  let s_of ns = float_of_int ns /. 1e9 in
  ( acc,
    [ ("traced_steps", w.Workload.traced_steps) ],
    List.map (fun (l, v) -> (l, v, "s")) parts
    @ [
        ("unattributed_s", unattributed, "s");
        ("trace.wall_s", wall, "s");
        ("trace.slowdown", traced_per_job /. ratio untraced_ns untraced_jobs, "ratio");
        ("trace.dropped", float_of_int lt.Layers.dropped, "count");
        ("pool.worker_busy_s", s_of lt.Layers.worker_busy_ns, "s");
        ("pool.steals", float_of_int steals, "count");
        ("taskgraph.jobs", float_of_int acc.derived_jobs, "count");
        ("taskgraph.raw_edges", float_of_int acc.raw_edges, "count");
        ("taskgraph.edges", float_of_int acc.edges, "count");
        ("sched.heuristics_tried", float_of_int (calls "sched.list"), "count");
        ("engine.compiles", float_of_int (calls "engine.compile"), "count");
        ("engine.replays", float_of_int (calls "engine.replay"), "count");
        ("engine.rat_runs", float_of_int (calls "engine.exec.rat"), "count");
        ("engine.queue_pushes_per_job", ratio queue_pushes engine_jobs, "1/job");
        ("engine.xshard_msgs_per_job", ratio xshard acc.sharded_jobs, "1/job");
        ("engine.shard_fallbacks", float_of_int fallbacks, "count");
        ( "engine.minor_words_per_job",
          minor /. float_of_int (max 1 untraced_jobs),
          "words/job" );
        ("mixedcrit.mode_switches", float_of_int acc.mode_switches, "count");
        ("mixedcrit.dropped_lo", float_of_int acc.dropped_lo, "count");
        ("service.epoch_engine_s", s_of lt.Layers.epoch_engine_ns, "s");
        ( "service.submit_ns",
          float_of_int (Layers.get lt.Layers.totals "service.submit")
          /. float_of_int (max 1 acc.submitted),
          "ns" );
        ("ingest.thinned_ratio", ratio acc.events_thinned acc.events_drained, "ratio");
        ("ingest.backpressure", float_of_int acc.backpressure, "count");
      ] )

(* ---- reporting ------------------------------------------------------- *)

let host_json (Workload.W w) ~commit ~sources ~seed ~trace =
  Json.Obj
    [
      ( "host",
        Json.Obj
          [
            ("nproc", Json.Int (Domain.recommended_domain_count ()));
            ("recommended_domains", Json.Int (Pool.recommended_domains ()));
            ("pool_domains_used", Json.Int w.Workload.pool_domains);
            ("ocaml", Json.Str Sys.ocaml_version);
            ("commit", Json.Str commit);
            ("sources_sha256", Json.Str sources);
          ] );
      ("workload", Json.Str w.Workload.name);
      ("seed", Json.Int seed);
      ("trace", Json.Bool trace);
    ]

let report ~host (acc, samples, metrics) =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-32s %16.6f %s\n" name v unit)
    metrics;
  if Calib.calibrations () > 0 then
    Printf.printf "  host speed: %d calibrations, median clock rate %.3f (virtual/real)\n"
      (Calib.calibrations ()) (Calib.median_rate ());
  Printf.printf "  samples: %s\n"
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) samples));
  Printf.printf "  fail_ratio: %d/%d = %.6f\n" acc.failed acc.attempted
    (ratio acc.failed acc.attempted);
  List.iter (fun m -> Printf.printf "  MISMATCH %s\n" m) (List.rev acc.mismatches);
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let correct = acc.mismatches = [] && finite in
  print_endline (Json.to_string host);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int acc.attempted);
            ("failed", Json.Int acc.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
                   metrics) );
          ]));
  if not correct then exit 1

let usage () =
  prerr_endline
    "usage: bench.exe --workload (toolchain|periodic|sporadic|service) --seed N \
     --seconds S --trace 0|1 [--commit C] [--sources DIGEST]";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace args (String.sub key 2 (String.length key - 2)) v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let arg k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let opt k = Option.value ~default:"unknown" (Hashtbl.find_opt args k) in
  let w =
    match List.find_opt (fun w -> name_of w = arg "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed, seconds, trace =
    try (int_of_string (arg "seed"), float_of_string (arg "seconds"), arg "trace" = "1")
    with Failure _ -> usage ()
  in
  let host = host_json w ~commit:(opt "commit") ~sources:(opt "sources") ~seed ~trace in
  Printf.printf "workload %s, seed %d, %s\n%!" (name_of w) seed
    (if trace then "traced" else Printf.sprintf "%g s untraced" seconds);
  report ~host (if trace then traced w ~seed else untraced w ~seed ~seconds)

(* fppn-tool: command-line front end to the FPPN tool flow.

   Subcommands mirror the paper's pipeline:
     info      network summary (processes, channels, priorities)
     derive    task-graph derivation (Sec. III-A)
     schedule  static schedule by list scheduling (Sec. III-B)
     simulate  online static-order execution (Sec. IV)
     dot       Graphviz export of the network or the task graph *)

module Rat = Rt_util.Rat
module Network = Fppn.Network
module Process = Fppn.Process
module Derive = Taskgraph.Derive
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job
module Analysis = Taskgraph.Analysis
module Priority = Sched.Priority
module List_scheduler = Sched.List_scheduler
module Static_schedule = Sched.Static_schedule
module Engine = Runtime.Engine
module Platform = Runtime.Platform
module Exec_time = Runtime.Exec_time
module Json = Rt_util.Json
module Obs_trace = Fppn_obs.Trace
module Obs_metrics = Fppn_obs.Metrics
module Chrome = Fppn_obs.Chrome

open Cmdliner

let ms = Rat.of_int

(* --- application selection ------------------------------------------- *)

type app = {
  net : Network.t;
  wcet : Derive.wcet_map;
  inputs : Fppn.Netstate.input_feed;
  default_sporadic_density : float;
}

let load_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  src

(* Every source-level failure (lexing, parsing, elaboration) is rendered
   as an FPPN000 diagnostic — one uniform file:line:col format — and
   exits 2, distinguishing "bad input" from "checks failed" (exit 1). *)
let source_error path msg pos =
  Format.eprintf "%a@." Fppn_lint.Diagnostic.pp
    (Fppn_lint.Diagnostic.make ~file:path ~pos Fppn_lint.Diagnostic.Source_error
       ~subject:("file " ^ Filename.basename path)
       msg);
  exit 2

let resolve_file path =
  let src = load_file path in
  try
    let ast = Fppn_lang.Parser.parse src in
    let net = Fppn_lang.Elaborate.to_network ast in
    {
      net;
      wcet = Fppn_lang.Elaborate.wcet_map ~default:(ms 10) ast;
      inputs = Fppn.Netstate.no_inputs;
      default_sporadic_density = 0.5;
    }
  with
  | Fppn_lang.Lexer.Error (msg, pos) | Fppn_lang.Parser.Error (msg, pos)
  | Fppn_lang.Elaborate.Error (msg, pos) ->
    source_error path msg pos

let resolve_app name seed =
  if Filename.check_suffix name ".fppn" then resolve_file name
  else
  match String.lowercase_ascii name with
  | "fig1" ->
    {
      net = Fppn_apps.Fig1.network ();
      wcet = Fppn_apps.Fig1.wcet;
      inputs = Fppn_apps.Fig1.input_feed ~samples:256;
      default_sporadic_density = 0.5;
    }
  | "fft" | "fft8" ->
    let p = Fppn_apps.Fft.default_params in
    {
      net = Fppn_apps.Fft.network p;
      wcet = Fppn_apps.Fft.wcet_map p;
      inputs = Fppn_apps.Fft.input_feed p ~frames:256;
      default_sporadic_density = 0.0;
    }
  | "fft-overhead" ->
    let p = Fppn_apps.Fft.default_params in
    {
      net = Fppn_apps.Fft.network_with_overhead_job p;
      wcet = Fppn_apps.Fft.wcet_map_with_overhead p ~overhead:(ms 41);
      inputs = Fppn_apps.Fft.input_feed p ~frames:256;
      default_sporadic_density = 0.0;
    }
  | "automotive" | "engine" ->
    {
      net = Fppn_apps.Automotive.network ();
      wcet = Fppn_apps.Automotive.wcet;
      inputs = Fppn_apps.Automotive.input_feed;
      default_sporadic_density = 0.5;
    }
  | "fms" ->
    {
      net = Fppn_apps.Fms.reduced ();
      wcet = Fppn_apps.Fms.wcet;
      inputs = Fppn.Netstate.no_inputs;
      default_sporadic_density = 0.5;
    }
  | "fms-original" ->
    {
      net = Fppn_apps.Fms.original ();
      wcet = Fppn_apps.Fms.wcet;
      inputs = Fppn.Netstate.no_inputs;
      default_sporadic_density = 0.5;
    }
  | "random" ->
    let params = { Fppn_apps.Randgen.default_params with seed } in
    let net = Fppn_apps.Randgen.network params in
    {
      net;
      wcet =
        Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 10)
          (Derive.const_wcet Rat.one) net;
      inputs = Fppn.Netstate.no_inputs;
      default_sporadic_density = 0.5;
    }
  | "random-wide" ->
    (* >16384-job, one-job-per-process stress shape for static
       certification *)
    let net = Fppn_apps.Randgen.build_exn (Fppn_apps.Randgen.wide_spec ()) in
    {
      net;
      (* tiny fixed durations so thousands of one-job processes fit one
         hyperperiod frame on a few processors *)
      wcet =
        Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 100_000)
          (Derive.const_wcet Rat.one) net;
      inputs = Fppn.Netstate.no_inputs;
      default_sporadic_density = 0.0;
    }
  | other ->
    Printf.eprintf
      "unknown application %S (expected fig1, fft, fft-overhead, fms, fms-original, automotive, random, random-wide)\n"
      other;
    exit 2

let app_arg =
  let doc =
    "Application: fig1 (the paper's running example), fft / fft-overhead \
     (Sec. V-A), fms / fms-original (Sec. V-B), automotive (engine \
     management), random (synthetic workload), or a path to a .fppn source \
     file (also via --file)."
  in
  let app_opt =
    Arg.(value & opt string "fig1" & info [ "a"; "app" ] ~docv:"APP" ~doc)
  in
  let file_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE"
          ~doc:"FPPN source file (overrides --app).")
  in
  Term.(
    const (fun name file -> match file with Some f -> f | None -> name)
    $ app_opt $ file_opt)

let seed_arg =
  let doc = "Random seed (random workload generation, sporadic traces, jitter)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* a count flag: zero or less is a bad flag (exit 2), named *)
let positive ~flag arg =
  Term.(
    const (fun v ->
        if v <= 0 then begin
          Printf.eprintf "fppn-tool: %s must be positive, got %d\n" flag v;
          Stdlib.exit 2
        end;
        v)
    $ arg)

let procs_arg =
  let doc = "Number of identical processors." in
  positive ~flag:"-m/--procs"
    Arg.(value & opt int 2 & info [ "m"; "procs" ] ~docv:"M" ~doc)

let frames_arg =
  let doc = "Number of hyperperiod frames to simulate." in
  positive ~flag:"--frames"
    Arg.(value & opt int 4 & info [ "frames" ] ~docv:"N" ~doc)

let heuristic_arg =
  let doc =
    Printf.sprintf "Schedule-priority heuristic (%s) or 'auto'."
      (String.concat ", " (List.map Priority.to_string Priority.all))
  in
  Arg.(value & opt string "auto" & info [ "heuristic" ] ~docv:"H" ~doc)

(* --- shared helpers ---------------------------------------------------- *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record live spans, counters and metrics while running and write \
           them as Chrome trace-event JSON (open in chrome://tracing or \
           Perfetto).")

(* Recording stays off unless asked for: the engine hot path then pays
   only a flag check per instrumentation site. *)
let obs_begin trace_out =
  if trace_out <> None then begin
    Obs_trace.set_enabled true;
    Obs_metrics.set_enabled true
  end

let obs_finish ?(model = []) trace_out =
  Option.iter
    (fun path ->
      let live = Chrome.of_trace (Obs_trace.events ()) in
      let events = model @ live in
      Chrome.write_file path events;
      Printf.printf "chrome trace written to %s (%d events)\n" path
        (List.length events);
      let dropped = Obs_trace.dropped () in
      if dropped > 0 then
        Printf.printf "note: %d oldest trace events dropped (ring overflow)\n"
          dropped)
    trace_out

(* A network derivation rejects (outside the Sec. III-A subclass, or a
   hyperperiod that cannot be represented) is bad input: one line, and
   exit 2. *)
let derive_app ?reduce app =
  match Derive.derive ?reduce ~wcet:app.wcet app.net with
  | Ok d -> d
  | Error e ->
    Format.eprintf "fppn-tool: %a@." Derive.pp_error e;
    exit 2

(* 'auto' fans the heuristic attempts out over a domain pool (1 worker
   per available core), which also gives traces their pool lanes.  A
   task graph no integer tick grid holds is bad input, as the engine
   refuses its runs: one line, and exit 2. *)
let schedule_for g ~heuristic ~n_procs =
  try
    match String.lowercase_ascii heuristic with
    | "auto" -> (
      let jobs = Rt_util.Pool.clamp_jobs (Rt_util.Pool.default_jobs ()) in
      match
        snd
          (Rt_util.Pool.with_pool ~jobs (fun pool ->
               List_scheduler.auto ~pool ~n_procs g))
      with
      | Some a ->
        Printf.printf "heuristic: %s (first feasible)\n"
          (Priority.to_string a.List_scheduler.heuristic);
        a.List_scheduler.schedule
      | None ->
        print_endline
          "no feasible schedule found by any heuristic; using alap-edf best effort";
        List_scheduler.schedule_with ~heuristic:Priority.Alap_edf ~n_procs g)
    | h -> (
      match Priority.of_string h with
      | Some heuristic -> List_scheduler.schedule_with ~heuristic ~n_procs g
      | None ->
        Printf.eprintf "unknown heuristic %S\n" h;
        exit 2)
  with Rat.Overflow ->
    prerr_endline
      "fppn-tool: the task graph's times overflow an int when scheduled \
       (no integer tick grid holds them)";
    exit 2

(* A run the engine refuses (times no tick grid holds, among its other
   checks) is refused before any job body runs: bad input, one line and
   exit 2. *)
let engine_run app d s config =
  try Engine.run app.net d s config
  with Invalid_argument msg ->
    Printf.eprintf "fppn-tool: %s\n" msg;
    exit 2

let sporadic_traces app d ~frames ~seed ~density =
  let horizon = Rat.mul d.Derive.hyperperiod (Rat.of_int frames) in
  Engine.handled_traces app.net d ~frames
    (Fppn_apps.Randgen.random_traces ~seed ~horizon ~density app.net)

(* --- subcommands -------------------------------------------------------- *)

let info_cmd =
  let run app_name seed =
    let app = resolve_app app_name seed in
    let net = app.net in
    Printf.printf "network: %s\n" (Network.name net);
    Printf.printf "processes (%d):\n" (Network.n_processes net);
    Array.iter
      (fun p -> Format.printf "  %a@." Process.pp p)
      (Network.processes net);
    Printf.printf "internal channels (%d):\n" (List.length (Network.channels net));
    List.iter
      (fun (c : Network.channel_decl) ->
        Printf.printf "  %s: %s -> %s (%s)\n" c.Network.ch_name c.Network.writer
          c.Network.reader
          (Fppn.Channel.kind_to_string c.Network.ch_kind))
      (Network.channels net);
    Printf.printf "functional priorities (%d):\n" (List.length (Network.fp_edges net));
    List.iter
      (fun (hi, lo) ->
        Printf.printf "  %s -> %s\n"
          (Process.name (Network.process net hi))
          (Process.name (Network.process net lo)))
      (Network.fp_edges net);
    match Network.user_map net with
    | Ok _ -> print_endline "scheduling subclass (Sec. III-A): satisfied"
    | Error errs ->
      print_endline "scheduling subclass violations:";
      List.iter (fun e -> Format.printf "  %a@." Network.pp_user_error e) errs
  in
  let term = Term.(const run $ app_arg $ seed_arg) in
  Cmd.v (Cmd.info "info" ~doc:"Describe an application network") term

let derive_cmd =
  let run app_name seed no_reduce =
    let app = resolve_app app_name seed in
    let d = derive_app ~reduce:(not no_reduce) app in
    let g = d.Derive.graph in
    Printf.printf "hyperperiod: %s ms\n" (Rat.to_string d.Derive.hyperperiod);
    Printf.printf "jobs: %d, edges: %d (raw %d)\n" (Graph.n_jobs g)
      (Graph.n_edges g) d.Derive.raw_edges;
    List.iter
      (fun (s : Derive.server_info) ->
        Printf.printf
          "server for %s: user %s, period %s ms, corrected deadline %s ms, %s window\n"
          (Process.name (Network.process app.net s.Derive.sporadic))
          (Process.name (Network.process app.net s.Derive.user))
          (Rat.to_string s.Derive.server_period)
          (Rat.to_string s.Derive.server_relative_deadline)
          (if s.Derive.boundary_closed_right then "(a,b]" else "[a,b)"))
      d.Derive.servers;
    let analysis = Analysis.analyse g in
    let w1, w2 = analysis.load.window in
    Printf.printf "load: %.3f over window [%s, %s] ms\n"
      (Rat.to_float analysis.load.value)
      (Rat.to_string w1) (Rat.to_string w2);
    List.iter
      (fun m ->
        match Analysis.necessary_condition analysis ~processors:m with
        | Ok () -> Printf.printf "necessary condition (Prop 3.1) for M=%d: holds\n" m
        | Error _ -> Printf.printf "necessary condition (Prop 3.1) for M=%d: violated\n" m)
      [ 1; 2; 4 ]
  in
  let no_reduce =
    Arg.(value & flag & info [ "no-reduce" ] ~doc:"Skip the transitive reduction.")
  in
  let term = Term.(const run $ app_arg $ seed_arg $ no_reduce) in
  Cmd.v (Cmd.info "derive" ~doc:"Derive the task graph (Sec. III-A)") term

(* Multi-application co-scheduling: --apps a,b,c shares the M processors
   between several networks (Cosched).  Per-app Rta/Dimension accounting
   is printed as a table; --save writes the fppn-cosched/1 JSON. *)
let cosched_run ~apps_csv ~cosched ~priorities ~seed ~n_procs ~heuristic ~save
    ~svg =
  let names =
    List.filter (fun s -> s <> "")
      (List.map String.trim (String.split_on_char ',' apps_csv))
  in
  if names = [] then begin
    Printf.eprintf "--apps: expected a comma-separated application list\n";
    exit 2
  end;
  let variant =
    match Sched.Cosched.variant_of_string cosched with
    | Some v -> v
    | None ->
      Printf.eprintf "unknown co-scheduling variant %S (expected fair or slots)\n"
        cosched;
      exit 2
  in
  let prios =
    match priorities with
    | "" -> List.mapi (fun i _ -> i) names
    | s -> (
      let fields = String.split_on_char ',' s in
      match List.map (fun f -> int_of_string_opt (String.trim f)) fields with
      | l when List.length l = List.length names && List.for_all Option.is_some l
        ->
        List.map Option.get l
      | _ ->
        Printf.eprintf
          "--priorities: expected %d comma-separated integers (one per app)\n"
          (List.length names);
        exit 2)
  in
  if variant = Sched.Cosched.Slots && List.length names > n_procs then begin
    Printf.eprintf
      "slots variant needs one processor per application (%d apps, M=%d)\n"
      (List.length names) n_procs;
    exit 2
  end;
  (* duplicate inputs are allowed; make display names unique *)
  let seen = Hashtbl.create 8 in
  let resolved =
    List.map2
      (fun name prio ->
        let app = resolve_app name seed in
        let d = derive_app app in
        let base = Filename.remove_extension (Filename.basename name) in
        let uniq =
          match Hashtbl.find_opt seen base with
          | None ->
            Hashtbl.add seen base 1;
            base
          | Some k ->
            Hashtbl.replace seen base (k + 1);
            Printf.sprintf "%s#%d" base (k + 1)
        in
        ( { Sched.Cosched.app_name = uniq; app_priority = prio;
            graph = d.Derive.graph },
          app, d ))
      names prios
  in
  let capps = List.map (fun (c, _, _) -> c) resolved in
  let result =
    match String.lowercase_ascii heuristic with
    | "auto" -> (
      let jobs = Rt_util.Pool.clamp_jobs (Rt_util.Pool.default_jobs ()) in
      match
        snd
          (Rt_util.Pool.with_pool ~jobs (fun pool ->
               Sched.Cosched.auto ~pool ~variant ~n_procs capps))
      with
      | Some a ->
        Printf.printf "heuristic: %s (first all-feasible)\n"
          (Priority.to_string a.Sched.Cosched.heuristic);
        a.Sched.Cosched.result
      | None ->
        print_endline
          "no heuristic co-schedules every application feasibly; using \
           alap-edf best effort";
        Sched.Cosched.schedule_with ~variant ~n_procs capps)
    | h -> (
      match Priority.of_string h with
      | Some heuristic ->
        Sched.Cosched.schedule_with ~heuristic ~variant ~n_procs capps
      | None ->
        Printf.eprintf "unknown heuristic %S\n" h;
        exit 2)
  in
  let rows =
    List.map2
      (fun (r : Sched.Cosched.app_report) (_, app, _) ->
        let rta_ok =
          Sched.Rta.schedulable (Sched.Rta.analyse ~wcet:app.wcet app.net)
        in
        [
          r.Sched.Cosched.name;
          string_of_int r.Sched.Cosched.priority;
          (match r.Sched.Cosched.slots with
          | [] -> "shared"
          | s -> String.concat "+" (List.map string_of_int s));
          (if r.Sched.Cosched.lower_bound = max_int then "inf"
           else string_of_int r.Sched.Cosched.lower_bound);
          Printf.sprintf "%.3f" (Rat.to_float r.Sched.Cosched.utilization);
          (if rta_ok then "yes" else "no");
          Printf.sprintf "%g" (Rat.to_float r.Sched.Cosched.makespan);
          (if r.Sched.Cosched.feasible then "yes" else "NO");
        ])
      result.Sched.Cosched.reports resolved
  in
  Printf.printf "co-scheduling %d applications on M=%d (%s variant)\n"
    (List.length capps) n_procs
    (Sched.Cosched.variant_to_string variant);
  Rt_util.Table.print
    ~aligns:Rt_util.Table.[ Left; Right; Right; Right; Right; Right; Right; Right ]
    ~header:
      [ "app"; "prio"; "procs"; "lb"; "load"; "rta(1cpu)"; "makespan ms"; "feasible" ]
    rows;
  Printf.printf "combined makespan: %s ms — %s\n"
    (Rat.to_string result.Sched.Cosched.makespan)
    (if result.Sched.Cosched.feasible then "all applications feasible"
     else "some application misses a deadline");
  Option.iter
    (fun path ->
      Sched.Cosched.save path result;
      Printf.printf "co-schedule saved to %s (fppn-cosched/1 json)\n" path)
    save;
  let gantt_rows =
    Static_schedule.to_gantt_rows result.Sched.Cosched.union
      result.Sched.Cosched.combined
  in
  Option.iter
    (fun path ->
      Runtime.Export.write_file path
        (Rt_util.Gantt.to_svg
           ~title:
             (Printf.sprintf "co-schedule of %s (M=%d, %s)"
                (String.concat ", " names) n_procs
                (Sched.Cosched.variant_to_string variant))
           gantt_rows);
      Printf.printf "gantt chart written to %s (svg)\n" path)
    svg;
  Rt_util.Gantt.print ~width:72
    ~t_max:(Rat.to_float result.Sched.Cosched.makespan)
    gantt_rows

let schedule_term, sched_doc =
  let run_single app_name seed n_procs heuristic save svg trace_out =
    obs_begin trace_out;
    let app = resolve_app app_name seed in
    let d = derive_app app in
    let g = d.Derive.graph in
    let s = schedule_for g ~heuristic ~n_procs in
    Option.iter
      (fun path ->
        Sched.Schedule_io.save ~graph:g path s;
        Printf.printf "schedule saved to %s\n" path)
      save;
    Option.iter
      (fun path ->
        Runtime.Export.write_file path
          (Rt_util.Gantt.to_svg
             ~title:(Printf.sprintf "%s static schedule (M=%d)" app_name n_procs)
             (Static_schedule.to_gantt_rows g s));
        Printf.printf "gantt chart written to %s (svg)\n" path)
      svg;
    Printf.printf "makespan: %s ms (hyperperiod %s ms)\n"
      (Rat.to_string (Static_schedule.makespan g s))
      (Rat.to_string d.Derive.hyperperiod);
    (match Static_schedule.check g s with
    | [] -> print_endline "schedule: feasible"
    | vs ->
      Printf.printf "schedule: %d violation(s)\n" (List.length vs);
      List.iter (fun v -> Format.printf "  %a@." (Static_schedule.pp_violation g) v) vs);
    Rt_util.Gantt.print ~width:72
      ~t_max:(Rat.to_float d.Derive.hyperperiod)
      (Static_schedule.to_gantt_rows g s);
    obs_finish trace_out
  in
  let run app_name seed n_procs heuristic save svg trace_out apps_csv cosched
      priorities =
    if apps_csv <> "" then begin
      obs_begin trace_out;
      cosched_run ~apps_csv ~cosched ~priorities ~seed ~n_procs ~heuristic
        ~save ~svg;
      obs_finish trace_out
    end
    else run_single app_name seed n_procs heuristic save svg trace_out
  in
  let save =
    Arg.(
      value & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Persist the schedule (reload with simulate --use-schedule).")
  in
  let svg =
    Arg.(
      value & opt (some string) None
      & info [ "svg" ] ~docv:"FILE" ~doc:"Render the schedule as an SVG Gantt chart.")
  in
  let apps_csv =
    Arg.(
      value & opt string ""
      & info [ "apps" ] ~docv:"APP,APP,..."
          ~doc:
            "Co-schedule several applications (names or .fppn files, \
             comma-separated) on the shared processors instead of one.")
  in
  let cosched =
    Arg.(
      value & opt string "fair"
      & info [ "cosched" ] ~docv:"VARIANT"
          ~doc:
            "Co-scheduling variant for --apps: 'fair' (common ready queue \
             interleaving applications by priority and rank) or 'slots' \
             (preallocated per-application processor budgets).")
  in
  let priorities =
    Arg.(
      value & opt string ""
      & info [ "priorities" ] ~docv:"P,P,..."
          ~doc:
            "Application priorities for --apps (smaller = more important, one \
             per application; default: list order).")
  in
  ( Term.(
      const run $ app_arg $ seed_arg $ procs_arg $ heuristic_arg $ save $ svg
      $ trace_out_arg $ apps_csv $ cosched $ priorities),
    "Compute a static schedule (Sec. III-B); --apps co-schedules several \
     applications (MHEFT-style)" )

let schedule_cmd = Cmd.v (Cmd.info "schedule" ~doc:sched_doc) schedule_term
let sched_cmd = Cmd.v (Cmd.info "sched" ~doc:(sched_doc ^ " (alias of schedule)")) schedule_term

let simulate_term, simulate_doc =
  let run app_name seed n_procs frames heuristic jitter overhead density
      json_out csv_out per_process use_schedule latency svg_out trace_out =
    obs_begin trace_out;
    let app = resolve_app app_name seed in
    let d = derive_app app in
    let g = d.Derive.graph in
    let s =
      match use_schedule with
      | None -> schedule_for g ~heuristic ~n_procs
      | Some path -> (
        match Sched.Schedule_io.load path with
        | Ok s when Sched.Schedule_io.matches g s ->
          Printf.printf "schedule loaded from %s\n" path;
          s
        | Ok _ ->
          Printf.eprintf "%s does not cover this application's task graph\n" path;
          exit 2
        | Error e ->
          Printf.eprintf "%s: %s\n" path e;
          exit 2)
    in
    let n_procs = Sched.Static_schedule.n_procs s in
    let density =
      if density < 0.0 then app.default_sporadic_density else density
    in
    let traces = sporadic_traces app d ~frames ~seed ~density in
    let platform_overhead =
      match String.lowercase_ascii overhead with
      | "none" -> Platform.no_overhead
      | "mppa" -> Platform.mppa_like
      | other ->
        Printf.eprintf "unknown overhead model %S (none|mppa)\n" other;
        exit 2
    in
    let exec =
      if jitter <= 0.0 then Exec_time.constant
      else Exec_time.uniform ~seed ~min_fraction:(Float.max 0.0 (1.0 -. jitter))
    in
    let config =
      {
        Engine.platform = Platform.create ~overhead:platform_overhead ~n_procs ();
        exec;
        frames;
        sporadic = traces;
        inputs = app.inputs;
      }
    in
    let r = engine_run app d s config in
    Format.printf "%a@." Runtime.Exec_trace.pp_stats r.Engine.stats;
    if per_process then
      Format.printf "%a" Runtime.Exec_trace.pp_by_process
        (Runtime.Exec_trace.by_process (Engine.trace r));
    Option.iter
      (fun path ->
        Runtime.Export.write_file path (Runtime.Export.to_json (Engine.trace r));
        Printf.printf "trace written to %s (json)\n" path)
      json_out;
    Option.iter
      (fun path ->
        Runtime.Export.write_file path (Runtime.Export.to_csv (Engine.trace r));
        Printf.printf "trace written to %s (csv)\n" path)
      csv_out;
    Option.iter
      (fun path ->
        Runtime.Export.write_file path
          (Rt_util.Gantt.to_svg
             ~title:(Printf.sprintf "%s execution (M=%d, %d frames)" app_name n_procs frames)
             (Runtime.Exec_trace.to_gantt_rows ~runtime_row:(Engine.overhead_segments r)
                (Engine.trace r)));
        Printf.printf "gantt chart written to %s (svg)\n" path)
      svg_out;
    (match Runtime.Exec_trace.misses_by_process (Engine.trace r) with
    | [] -> ()
    | per ->
      print_endline "misses by process:";
      List.iter (fun (p, n) -> Printf.printf "  %-20s %d\n" p n) per);
    (match r.Engine.unhandled_events with
    | [] -> ()
    | evs -> Printf.printf "events beyond the simulated horizon: %d\n" (List.length evs));
    (* determinism check against the zero-delay reference *)
    let horizon = Rat.mul d.Derive.hyperperiod (Rat.of_int frames) in
    let zd =
      Fppn.Semantics.run ~inputs:app.inputs app.net
        (Fppn.Semantics.invocations ~sporadic:traces ~horizon app.net)
    in
    let eq =
      Fppn.Semantics.equal_signature (Fppn.Semantics.signature zd)
        (Engine.signature r)
    in
    Printf.printf "deterministic vs zero-delay reference: %b\n" eq;
    List.iter
      (fun spec ->
        match String.split_on_char ':' spec with
        | [ source; sink ] ->
          (try
             Format.printf "%a" Runtime.Latency.pp
               (Runtime.Latency.analyse g ~source ~sink (Engine.trace r))
           with Invalid_argument msg -> Printf.printf "latency %s: %s\n" spec msg)
        | _ -> Printf.eprintf "bad --latency spec %S (expected SRC:SNK)\n" spec)
      latency;
    obs_finish ~model:(Runtime.Export.to_chrome (Engine.trace r)) trace_out
  in
  let jitter =
    Arg.(
      value & opt float 0.5
      & info [ "jitter" ] ~docv:"F"
          ~doc:"Execution-time jitter: durations uniform in [(1-F)*C, C]. 0 = WCET.")
  in
  let overhead =
    Arg.(
      value & opt string "none"
      & info [ "overhead" ] ~docv:"MODEL"
          ~doc:"Runtime overhead model: none, or mppa (41/20 ms frame overhead).")
  in
  let density =
    Arg.(
      value & opt float (-1.0)
      & info [ "density" ] ~docv:"D"
          ~doc:"Sporadic event density in [0,1] (default: per-application).")
  in
  let json_out =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the execution trace as JSON.")
  in
  let csv_out =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write the execution trace as CSV.")
  in
  let per_process =
    Arg.(
      value & flag
      & info [ "per-process" ] ~doc:"Print per-process response statistics.")
  in
  let use_schedule =
    Arg.(
      value & opt (some string) None
      & info [ "use-schedule" ] ~docv:"FILE"
          ~doc:"Run a schedule saved by 'schedule --save' instead of scheduling.")
  in
  let latency =
    Arg.(
      value & opt_all string []
      & info [ "latency" ] ~docv:"SRC:SNK"
          ~doc:"Report end-to-end latency between two processes (repeatable).")
  in
  let svg_out =
    Arg.(
      value & opt (some string) None
      & info [ "svg" ] ~docv:"FILE"
          ~doc:"Render the execution trace as an SVG Gantt chart.")
  in
  ( Term.(
      const run $ app_arg $ seed_arg $ procs_arg $ frames_arg $ heuristic_arg
      $ jitter $ overhead $ density $ json_out $ csv_out $ per_process
      $ use_schedule $ latency $ svg_out $ trace_out_arg),
    "Run the online static-order policy (Sec. IV)" )

let simulate_cmd = Cmd.v (Cmd.info "simulate" ~doc:simulate_doc) simulate_term
let run_cmd = Cmd.v (Cmd.info "run" ~doc:(simulate_doc ^ " (alias of simulate)")) simulate_term

let buffers_cmd =
  let run app_name seed hyperperiods =
    let app = resolve_app app_name seed in
    (* the analysis runs whole hyperperiods: one that cannot be
       represented is answered as [derive] answers it *)
    (match Fppn.Network.hyperperiod app.net with
    | _ -> ()
    | exception Rat.Overflow ->
      Format.eprintf "fppn-tool: %a@." Derive.pp_error Derive.Hyperperiod_overflow;
      exit 2);
    let r = Fppn.Buffer_analysis.analyse ~hyperperiods ~inputs:app.inputs app.net in
    Format.printf "%a" Fppn.Buffer_analysis.pp r;
    match Fppn.Buffer_analysis.unbounded_channels r with
    | [] -> print_endline "all FIFOs are bounded"
    | l ->
      Printf.printf "%d unbounded FIFO(s) — fix the application's rates\n"
        (List.length l);
      exit 1
  in
  let hyperperiods =
    positive ~flag:"--hyperperiods"
      Arg.(
        value & opt int 4
        & info [ "hyperperiods" ] ~docv:"N"
            ~doc:"Number of hyperperiods to analyse (default 4).")
  in
  let term = Term.(const run $ app_arg $ seed_arg $ hyperperiods) in
  Cmd.v
    (Cmd.info "buffers" ~doc:"FIFO occupancy bounds from the reference run")
    term

let check_cmd =
  let run app_name seed frames latency_specs =
    let app = resolve_app app_name seed in
    let parsed_specs =
      List.map
        (fun s ->
          match String.split_on_char ':' s with
          | [ src; snk; bound ] -> (
            try
              { Fppn_verify.Checker.l_source = src;
                l_sink = snk;
                max_reaction = Rat.of_string bound }
            with Invalid_argument _ ->
              Printf.eprintf "bad --latency-spec %S (expected SRC:SNK:MS)\n" s;
              exit 2)
          | _ ->
            Printf.eprintf "bad --latency-spec %S (expected SRC:SNK:MS)\n" s;
            exit 2)
        latency_specs
    in
    let config =
      { Fppn_verify.Checker.default_config with
        Fppn_verify.Checker.seed;
        frames;
        inputs = app.inputs;
        latency_specs = parsed_specs }
    in
    let report = Fppn_verify.Checker.run ~config ~wcet:app.wcet app.net in
    Format.printf "%a" Fppn_verify.Checker.pp report;
    if not report.Fppn_verify.Checker.passed then exit 1
  in
  let latency_specs =
    Arg.(
      value & opt_all string []
      & info [ "latency-spec" ] ~docv:"SRC:SNK:MS"
          ~doc:
            "End-to-end reaction-time constraint to verify on the WCET \
             execution (repeatable).")
  in
  let term = Term.(const run $ app_arg $ seed_arg $ frames_arg $ latency_specs) in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Verify an application end to end: derivation, schedulability,           determinism across processor counts and jitter, trace compliance,           buffer bounds")
    term

let exact_cmd =
  let run app_name seed n_procs budget =
    let app = resolve_app app_name seed in
    let d = derive_app app in
    let g = d.Derive.graph in
    if Graph.n_jobs g > 40 then
      Printf.printf
        "warning: %d jobs — exact search may not finish within the budget\n"
        (Graph.n_jobs g);
    let r = Sched.Exact.solve ~node_budget:budget ~n_procs g in
    Printf.printf "nodes explored: %d; search %s\n" r.Sched.Exact.nodes
      (if r.Sched.Exact.optimal then "exhausted (result is exact)"
       else "hit the node budget (result is a bound)");
    match (r.Sched.Exact.schedule, r.Sched.Exact.makespan) with
    | Some s, Some mk ->
      Printf.printf "feasible schedule found, makespan %s ms\n" (Rat.to_string mk);
      Rt_util.Gantt.print ~width:72
        ~t_max:(Rat.to_float d.Derive.hyperperiod)
        (Static_schedule.to_gantt_rows g s)
    | _ ->
      if r.Sched.Exact.optimal then
        Printf.printf "no deadline-feasible schedule exists on %d processor(s)\n"
          n_procs
      else print_endline "no feasible schedule found within the budget"
  in
  let budget =
    Arg.(
      value & opt int 2_000_000
      & info [ "budget" ] ~docv:"N" ~doc:"Branch-and-bound node budget.")
  in
  let term = Term.(const run $ app_arg $ seed_arg $ procs_arg $ budget) in
  Cmd.v
    (Cmd.info "exact"
       ~doc:"Exact minimal-makespan schedule by branch and bound (small graphs)")
    term

let rta_cmd =
  let run app_name seed =
    let app = resolve_app app_name seed in
    let entries = Sched.Rta.analyse ~wcet:app.wcet app.net in
    Format.printf "%a" Sched.Rta.pp entries;
    Printf.printf "uniprocessor RM schedulable: %b\n" (Sched.Rta.schedulable entries)
  in
  let term = Term.(const run $ app_arg $ seed_arg) in
  Cmd.v
    (Cmd.info "rta"
       ~doc:"Classical uniprocessor response-time analysis (rate-monotonic)")
    term

let dimension_cmd =
  let run app_name seed =
    let app = resolve_app app_name seed in
    let d = derive_app app in
    let v = Sched.Dimension.min_processors d.Derive.graph in
    Format.printf "%a@." Sched.Dimension.pp v
  in
  let term = Term.(const run $ app_arg $ seed_arg) in
  Cmd.v
    (Cmd.info "dimension" ~doc:"Minimal processor count (Prop. 3.1 + list scheduling)")
    term

let report_cmd =
  let run app_name seed n_procs frames =
    let app = resolve_app app_name seed in
    let net = app.net in
    let d = derive_app app in
    Printf.printf "# FPPN deployment report: %s\n\n" (Network.name net);
    Printf.printf "## Network\n\n%d processes, %d internal channels, %d priority edges.\n\n"
      (Network.n_processes net)
      (List.length (Network.channels net))
      (List.length (Network.fp_edges net));
    Array.iter
      (fun p -> Format.printf "- %a@." Process.pp p)
      (Network.processes net);
    let g = d.Derive.graph in
    let analysis = Analysis.analyse g in
    Printf.printf
      "\n## Task graph (Sec. III-A)\n\nHyperperiod %s ms; %d jobs, %d edges \
       (%d before reduction); load %.3f.\n"
      (Rat.to_string d.Derive.hyperperiod)
      (Graph.n_jobs g) (Graph.n_edges g) d.Derive.raw_edges
      (Rat.to_float analysis.load.value);
    let v = Sched.Dimension.min_processors ~analysis g in
    Format.printf "\nDimensioning: %a@." Sched.Dimension.pp v;
    Printf.printf "\n## Static schedule (M=%d)\n\n```\n" n_procs;
    let s = schedule_for g ~heuristic:"auto" ~n_procs in
    Rt_util.Gantt.print ~width:70
      ~t_max:(Rat.to_float d.Derive.hyperperiod)
      (Static_schedule.to_gantt_rows g s);
    Printf.printf "```\n\n## Uniprocessor response-time analysis\n\n```\n";
    Format.printf "%a" Sched.Rta.pp (Sched.Rta.analyse ~wcet:app.wcet net);
    Printf.printf "```\n\n## Buffer bounds\n\n```\n";
    Format.printf "%a"
      Fppn.Buffer_analysis.pp
      (Fppn.Buffer_analysis.analyse ~hyperperiods:(max 2 frames) ~inputs:app.inputs net);
    Printf.printf "```\n\n## Verification (Props. 2.1 / 3.1 / 4.1)\n\n```\n";
    let config =
      { Fppn_verify.Checker.default_config with
        Fppn_verify.Checker.seed;
        frames;
        processor_counts = [ n_procs ];
        inputs = app.inputs }
    in
    let report = Fppn_verify.Checker.run ~config ~wcet:app.wcet net in
    Format.printf "%a" Fppn_verify.Checker.pp report;
    Printf.printf "```\n"
  in
  let term = Term.(const run $ app_arg $ seed_arg $ procs_arg $ frames_arg) in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Emit a complete Markdown deployment report for an application")
    term

let lint_cmd =
  let run app_name seed format processors =
    let diags =
      if Filename.check_suffix app_name ".fppn" then
        (* lint the AST, not the elaborated network: networks the
           builder would reject still get positioned diagnostics *)
        let src = load_file app_name in
        try
          Fppn_lint.Lint.lint_ast ~file:app_name ?processors
            (Fppn_lang.Parser.parse src)
        with
        | Fppn_lang.Lexer.Error (msg, pos)
        | Fppn_lang.Parser.Error (msg, pos)
        | Fppn_lang.Elaborate.Error (msg, pos) ->
          [
            Fppn_lint.Diagnostic.make ~file:app_name ~pos
              Fppn_lint.Diagnostic.Source_error
              ~subject:("file " ^ Filename.basename app_name)
              msg;
          ]
      else
        let app = resolve_app app_name seed in
        Fppn_lint.Lint.lint_network ?processors
          ~wcet:(fun name -> Some (app.wcet name))
          app.net
    in
    (match format with
    | `Text -> Format.printf "%a" Fppn_lint.Diagnostic.pp_list diags
    | `Json -> print_endline (Fppn_lint.Diagnostic.to_json diags));
    (* exit 2: the source never reached the analyzer; exit 1: it did,
       and error-severity findings came back *)
    if
      List.exists
        (fun d -> d.Fppn_lint.Diagnostic.code = Fppn_lint.Diagnostic.Source_error)
        diags
    then exit 2
    else if Fppn_lint.Diagnostic.has_errors diags then exit 1
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: text (one line per finding) or json \
                (stable schema, version 1).")
  in
  let processors =
    Arg.(
      value
      & opt (some int) None
      & info [ "m"; "procs" ] ~docv:"M"
          ~doc:
            "Enforce the Prop. 3.1 necessary utilization bound against this \
             processor count (error when exceeded); without it the bound is \
             reported as an informational minimum.")
  in
  let term = Term.(const run $ app_arg $ seed_arg $ format $ processors) in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis: determinism races, functional-priority DAG \
          hygiene, Sec. III-A subclass conformance, channel misuse and \
          timing sanity, with stable FPPN0xx diagnostic codes. Exits 1 on \
          error-severity findings.")
    term

let certify_cmd =
  let run app_name seed format check =
    let model =
      if Filename.check_suffix app_name ".fppn" then
        (* certify the AST model so unbuildable networks still get a
           (rejecting) certificate with positioned diagnostics *)
        let src = load_file app_name in
        try Fppn_lint.Model.of_ast ~file:app_name (Fppn_lang.Parser.parse src)
        with
        | Fppn_lang.Lexer.Error (msg, pos)
        | Fppn_lang.Parser.Error (msg, pos)
        | Fppn_lang.Elaborate.Error (msg, pos) ->
          source_error app_name msg pos
      else
        let app = resolve_app app_name seed in
        Fppn_lint.Model.of_network
          ~wcet:(fun name -> Some (app.wcet name))
          app.net
    in
    let cert = Fppn_lint.Certificate.of_model model in
    let diags = Fppn_lint.Certificate.diagnostics cert in
    (match format with
    | `Text ->
      Format.printf "%a" Fppn_lint.Certificate.pp cert;
      if diags <> [] then Format.printf "%a" Fppn_lint.Diagnostic.pp_list diags
    | `Json -> print_endline (Fppn_lint.Certificate.to_json cert));
    if check then begin
      (* machine-check the serialized artifact: JSON round-trip, then
         re-validate against a fresh analysis of the model *)
      let checked =
        match Fppn_lint.Certificate.of_json (Fppn_lint.Certificate.to_json cert) with
        | Error e -> Error ("round-trip: " ^ e)
        | Ok cert' -> Fppn_lint.Certificate.validate cert' model
      in
      match checked with
      | Ok () -> ()
      | Error e ->
        Printf.eprintf "certificate self-check failed: %s\n" e;
        exit 1
    end;
    if Fppn_lint.Diagnostic.has_errors diags then exit 1
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: text (verdict table) or json (the stable \
                certificate schema, version 1).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Also machine-check the certificate: serialize, re-parse and \
                validate it against a fresh analysis.")
  in
  let term = Term.(const run $ app_arg $ seed_arg $ format $ check) in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Static shardability certification: per-channel job-ordering \
          verdicts proven at the (process, hyperperiod-phase) quotient \
          level (codes FPPN060-062), a lint no engine consumes. Exits 1 on \
          error-severity findings, 2 when the source never reached the \
          analyzer, like lint.")
    term

let fuzz_cmd =
  let run seed budget procs frames jitter_seeds permutations no_boundary
      max_periodic max_sporadic no_shrink shrink_budget inject json_out jobs
      static certify trace_out =
    obs_begin trace_out;
    let parse_ints what s =
      try List.map int_of_string (String.split_on_char ',' s)
      with _ ->
        Printf.eprintf "bad %s %S (expected comma-separated integers)\n" what s;
        exit 2
    in
    let inject =
      match String.lowercase_ascii inject with
      | "none" -> Fppn_fuzz.Campaign.No_injection
      | "channel-flip" -> Fppn_fuzz.Campaign.Inject_channel_flip
      | "sporadic-flip" -> Fppn_fuzz.Campaign.Inject_sporadic_flip
      | other ->
        Printf.eprintf
          "unknown injection %S (none|channel-flip|sporadic-flip)\n" other;
        exit 2
    in
    if certify then begin
      (* certificate-vs-closure differential: both certificates agree
         with the job-level closure, and unbuildable specs are rejected *)
      let summary =
        Fppn_fuzz.Static_diff.certify ~log:print_endline ~max_periodic
          ~max_sporadic ~seed ~budget ()
      in
      Format.printf "%a@." Fppn_fuzz.Static_diff.pp_certify summary;
      if not (Fppn_fuzz.Static_diff.certify_passed summary) then begin
        print_endline
          "self-test FAILED: the shardability certificate disagreed with the \
           job-level closure or the builder";
        exit 3
      end
    end
    else if static then begin
      (* lint-vs-oracle differential: no engine runs at all *)
      let summary =
        Fppn_fuzz.Static_diff.run ~log:print_endline ~max_periodic
          ~max_sporadic ~seed ~budget ~inject ()
      in
      Format.printf "%a@." Fppn_fuzz.Static_diff.pp summary;
      if not (Fppn_fuzz.Static_diff.passed ~inject summary) then
        match inject with
        | Fppn_fuzz.Campaign.No_injection -> exit 1
        | _ ->
          print_endline
            "self-test FAILED: an injected priority-order bug was invisible \
             to the static analyzer";
          exit 3
    end
    else
    let proc_counts = parse_ints "--procs" procs in
    if List.exists (fun m -> m < 1) proc_counts then begin
      Printf.eprintf "bad --procs %S (processor counts must be positive)\n" procs;
      exit 2
    end;
    let config =
      {
        Fppn_fuzz.Campaign.seed;
        budget;
        proc_counts;
        jitter_seeds = parse_ints "--jitter-seeds" jitter_seeds;
        frames;
        permutations;
        boundary_snap = not no_boundary;
        max_periodic;
        max_sporadic;
        shrink = not no_shrink;
        shrink_budget;
        inject;
      }
    in
    if jobs < 1 then begin
      Printf.eprintf "--jobs must be at least 1\n";
      exit 2
    end;
    let effective = Rt_util.Pool.clamp_jobs jobs in
    if effective <> jobs then
      Printf.printf "note: --jobs %d capped at %d (recommended domain count)\n"
        jobs effective;
    let report =
      Fppn_fuzz.Campaign.run ~log:print_endline ~jobs:effective
        ~jobs_requested:jobs config
    in
    Format.printf "%a" Fppn_fuzz.Report.pp report;
    Option.iter
      (fun path ->
        (try Runtime.Export.write_file path (Fppn_fuzz.Report.to_json report)
         with Sys_error msg ->
           Printf.eprintf "cannot write report: %s\n" msg;
           exit 2);
        Printf.printf "report written to %s (json)\n" path)
      json_out;
    obs_finish trace_out;
    match inject with
    | Fppn_fuzz.Campaign.No_injection ->
      if not (Fppn_fuzz.Report.passed report) then exit 1
    | _ ->
      (* self-test mode: the oracle must catch at least one injected bug *)
      if Fppn_fuzz.Report.passed report then begin
        print_endline
          "self-test FAILED: no injected priority-order bug was caught";
        exit 3
      end
  in
  let budget =
    positive ~flag:"--budget"
      Arg.(
        value & opt int 50
        & info [ "budget" ] ~docv:"N" ~doc:"Number of random cases to fuzz.")
  in
  let procs =
    Arg.(
      value & opt string "1,2"
      & info [ "procs" ] ~docv:"M,M,..."
          ~doc:"Processor counts every case is executed on (comma-separated).")
  in
  let frames =
    positive ~flag:"--frames"
      Arg.(
        value & opt int 2
        & info [ "frames" ] ~docv:"N" ~doc:"Hyperperiod frames per execution.")
  in
  let jitter_seeds =
    Arg.(
      value & opt string "1,2"
      & info [ "jitter-seeds" ] ~docv:"S,S,..."
          ~doc:"Execution-time jitter seeds per processor count.")
  in
  let permutations =
    Arg.(
      value & opt int 2
      & info [ "permutations" ] ~docv:"N"
          ~doc:
            "Adversarially permuted zero-delay runs per case (reorders \
             simultaneous invocations).")
  in
  let no_boundary =
    Arg.(
      value & flag
      & info [ "no-boundary" ]
          ~doc:"Disable sporadic stamps snapped to server window boundaries.")
  in
  let max_periodic =
    Arg.(
      value & opt int 6
      & info [ "max-periodic" ] ~docv:"N" ~doc:"Largest periodic process count drawn.")
  in
  let max_sporadic =
    Arg.(
      value & opt int 2
      & info [ "max-sporadic" ] ~docv:"N" ~doc:"Largest sporadic process count drawn.")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Report counterexamples without minimising them.")
  in
  let shrink_budget =
    Arg.(
      value & opt int 200
      & info [ "shrink-budget" ] ~docv:"N"
          ~doc:"Oracle invocations the shrinker may spend per counterexample.")
  in
  let inject =
    Arg.(
      value & opt string "none"
      & info [ "inject" ] ~docv:"KIND"
          ~doc:
            "Sabotage the system-under-test copy of every case with a flipped \
             functional-priority edge: none, channel-flip, or sporadic-flip. \
             Self-test mode: exits non-zero unless a bug is caught.")
  in
  let json_out =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the machine-readable campaign report as JSON.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Rt_util.Pool.default_jobs ())
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains checking oracle cases in parallel (default: the \
             recommended domain count; requests above it are capped, and \
             both counts are recorded in the report).  The report is \
             identical for every N apart from wall-clock fields.")
  in
  let static =
    Arg.(
      value & flag
      & info [ "static" ]
          ~doc:
            "Run the lint-vs-oracle differential instead of engine \
             executions: every injected sabotage must already be visible to \
             the static analyzer, and clean workloads must lint without \
             errors.")
  in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Run the certificate differential: the spec model's and the \
             built network's certificates must agree with the legacy \
             job-level closure, and every spec the builder refuses must \
             be rejected.")
  in
  let term =
    Term.(
      const run $ seed_arg $ budget $ procs $ frames $ jitter_seeds
      $ permutations $ no_boundary $ max_periodic $ max_sporadic $ no_shrink
      $ shrink_budget $ inject $ json_out $ jobs $ static $ certify
      $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential determinism fuzzing (Props. 2.1 / 4.1): random \
          networks through the zero-delay reference, the multiprocessor \
          runtime under jitter, and the timed-automata backend, with \
          adversarial invocation orders, window-boundary events, and \
          counterexample shrinking")
    term

let profile_cmd =
  let run app_name seed n_procs frames heuristic jitter top trace_out =
    Obs_trace.set_enabled true;
    Obs_metrics.set_enabled true;
    let app = resolve_app app_name seed in
    let d = derive_app app in
    let g = d.Derive.graph in
    let s = schedule_for g ~heuristic ~n_procs in
    let traces =
      sporadic_traces app d ~frames ~seed ~density:app.default_sporadic_density
    in
    let exec =
      if jitter <= 0.0 then Exec_time.constant
      else Exec_time.uniform ~seed ~min_fraction:(Float.max 0.0 (1.0 -. jitter))
    in
    let config =
      {
        Engine.platform = Platform.create ~n_procs ();
        exec;
        frames;
        sporadic = traces;
        inputs = app.inputs;
      }
    in
    let r = engine_run app d s config in
    Format.printf "%a@." Runtime.Exec_trace.pp_stats r.Engine.stats;
    let hotspots = Obs_trace.hotspots () in
    let total_self =
      List.fold_left (fun acc h -> acc + h.Obs_trace.self_ns) 0 hotspots
    in
    let ms ns = Printf.sprintf "%.3f" (float_of_int ns /. 1e6) in
    let rows =
      List.filteri (fun i _ -> i < top) hotspots
      |> List.map (fun h ->
             [
               h.Obs_trace.hname;
               string_of_int h.Obs_trace.calls;
               ms h.Obs_trace.total_ns;
               ms h.Obs_trace.self_ns;
               Printf.sprintf "%.1f"
                 (100.0 *. float_of_int h.Obs_trace.self_ns
                 /. float_of_int (max 1 total_self));
             ])
    in
    Printf.printf "\nhotspots (self time, wall clock):\n";
    Rt_util.Table.print
      ~aligns:
        Rt_util.Table.[ Left; Right; Right; Right; Right ]
      ~header:[ "span"; "calls"; "total ms"; "self ms"; "self %" ]
      rows;
    Printf.printf "\nmetrics snapshot:\n%s\n"
      (Json.to_string (Obs_metrics.snapshot ()));
    obs_finish ~model:(Runtime.Export.to_chrome (Engine.trace r)) trace_out
  in
  let jitter =
    Arg.(
      value & opt float 0.5
      & info [ "jitter" ] ~docv:"F"
          ~doc:"Execution-time jitter: durations uniform in [(1-F)*C, C]. 0 = WCET.")
  in
  let top =
    Arg.(
      value & opt int 15
      & info [ "top" ] ~docv:"N" ~doc:"Number of hotspot rows to print.")
  in
  let term =
    Term.(
      const run $ app_arg $ seed_arg $ procs_arg $ frames_arg $ heuristic_arg
      $ jitter $ top $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run an application with tracing and metrics enabled and print a \
          self-time hotspot table plus a metrics snapshot (add --trace-out \
          for the full Chrome trace)")
    term

(* --- Chrome trace validation ------------------------------------------- *)

let trace_validate_cmd =
  let str_field name ev = Option.bind (Json.member name ev) Json.as_string
  and int_field name ev = Option.bind (Json.member name ev) Json.as_int in
  let args_name ev =
    Option.bind (Json.member "args" ev) (fun a ->
        Option.bind (Json.member "name" a) Json.as_string)
  in
  let starts_with ~prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let has_engine_lane evs =
    let engine_pids =
      List.filter_map
        (fun ev ->
          if
            str_field "ph" ev = Some "M"
            && str_field "name" ev = Some "process_name"
            && args_name ev = Some "engine (model time)"
          then int_field "pid" ev
          else None)
        evs
    in
    List.exists
      (fun ev ->
        str_field "ph" ev = Some "X"
        &&
        match int_field "pid" ev with
        | Some p -> List.mem p engine_pids
        | None -> false)
      evs
  in
  let has_sched_lane evs =
    List.exists
      (fun ev ->
        str_field "ph" ev = Some "X"
        &&
        match str_field "name" ev with
        | Some n -> starts_with ~prefix:"sched." n
        | None -> false)
      evs
  in
  let has_pool_lane evs =
    List.exists
      (fun ev ->
        str_field "ph" ev = Some "M"
        && str_field "name" ev = Some "thread_name"
        &&
        match args_name ev with
        | Some n -> starts_with ~prefix:"pool/" n
        | None -> false)
      evs
  in
  let run path require =
    let fail msg =
      Printf.eprintf "%s: %s\n" path msg;
      exit 1
    in
    let json =
      match Json.parse (load_file path) with
      | json -> json
      | exception Json.Malformed msg -> fail ("not valid JSON: " ^ msg)
    in
    (match Chrome.validate json with
    | Ok () -> ()
    | Error msg -> fail ("schema violation: " ^ msg));
    let evs =
      match Option.bind (Json.member "traceEvents" json) Json.as_list with
      | Some evs -> evs
      | None -> fail "no traceEvents array"
    in
    List.iter
      (fun lane ->
        let ok =
          match lane with
          | "engine" -> has_engine_lane evs
          | "sched" -> has_sched_lane evs
          | "pool" -> has_pool_lane evs
          | other -> fail (Printf.sprintf "unknown lane requirement %S" other)
        in
        if not ok then fail (Printf.sprintf "missing required %s lane" lane))
      (match require with
      | "" -> []
      | csv -> String.split_on_char ',' csv);
    Printf.printf "%s: valid Chrome trace (%d events)\n" path (List.length evs)
  in
  let file =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Chrome trace-event JSON file to validate.")
  in
  let require =
    Arg.(
      value & opt string ""
      & info [ "require-lanes" ] ~docv:"L,L,..."
          ~doc:
            "Comma-separated lane kinds that must be present: engine (an X \
             event in the 'engine (model time)' process), sched (an X event \
             named sched.*), pool (a thread named pool/*).")
  in
  let term = Term.(const run $ file $ require) in
  Cmd.v
    (Cmd.info "trace-validate"
       ~doc:
         "Validate a file against the pinned Chrome trace-event schema \
          (exit 1 on violations)")
    term

let fmt_cmd =
  let run path =
    let src = load_file path in
    match Fppn_lang.Parser.parse src with
    | ast -> print_string (Fppn_lang.Printer.to_string ast)
    | exception Fppn_lang.Parser.Error (msg, pos)
    | exception Fppn_lang.Lexer.Error (msg, pos) ->
      source_error path msg pos
  in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"FPPN source file.")
  in
  let term = Term.(const run $ file) in
  Cmd.v (Cmd.info "fmt" ~doc:"Reformat an FPPN source file to canonical form") term

let dot_cmd =
  let run app_name seed taskgraph =
    let app = resolve_app app_name seed in
    if taskgraph then
      let d = derive_app app in
      print_string (Graph.to_dot d.Derive.graph)
    else print_string (Network.to_dot app.net)
  in
  let taskgraph =
    Arg.(
      value & flag
      & info [ "taskgraph" ] ~doc:"Export the derived task graph instead of the network.")
  in
  let term = Term.(const run $ app_arg $ seed_arg $ taskgraph) in
  Cmd.v (Cmd.info "dot" ~doc:"Export Graphviz DOT") term

(* --- serve --------------------------------------------------------------- *)

module Service = Fppn_service.Service
module Service_tenant = Fppn_service.Tenant
module Admission = Fppn_service.Admission
module Service_report = Fppn_service.Report

let serve_doc =
  "Host applications as co-resident tenants of a multi-tenant service: MPR \
   admission control at the door, an async event queue at the side, and an \
   epoch loop running every tenant's deterministic engine plan over a shared \
   worker pool"

let serve_cmd =
  let run apps tenants procs frames epochs events producers seed
      queue_capacity jobs reject_demo verify min_admitted json_out =
    if epochs < 0 then begin
      Printf.eprintf "serve: --epochs must not be negative\n";
      exit 2
    end;
    let svc = Service.create ~queue_capacity ~procs ~frames () in
    let rows = ref [] in
    let register name (wcet : Derive.wcet_map) ?inputs net =
      match Service.register svc ~name ~wcet ?inputs net with
      | Ok ten ->
        rows :=
          {
            Service_report.row_name = name;
            row_decision = Admission.Accepted ten.Service_tenant.interface;
          }
          :: !rows
      | Error reason ->
        rows :=
          { Service_report.row_name = name; row_decision = Admission.Rejected reason }
          :: !rows
    in
    if apps <> "" then
      List.iter
        (fun a ->
          let app = resolve_app a seed in
          register a app.wcet ~inputs:app.inputs app.net)
        (String.split_on_char ',' apps);
    (* scripted small tenants: 2 periodic + 1 sporadic process each, WCET
       at 1/2000 of the period, so hundreds of MPR interfaces fit M=4 *)
    for i = 0 to tenants - 1 do
      let params =
        {
          Fppn_apps.Randgen.seed = seed + (7919 * (i + 1));
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
      register (Printf.sprintf "rnd%03d" i) wcet net
    done;
    let demo_failed = ref false in
    if reject_demo then begin
      (* five independent period-100 processes at 70ms WCET each: the
         Prop. 3.1 bound still passes on M >= 4 (ceil 3.5 = 4), but no
         MPR contract covers the demand - a deterministic, machine-
         readable MPR rejection *)
      let params =
        {
          Fppn_apps.Randgen.seed;
          n_periodic = 5;
          n_sporadic = 0;
          periods = [ 100 ];
          channel_density = 0.0;
          max_burst = 1;
        }
      in
      let net = Fppn_apps.Randgen.network params in
      let wcet =
        Fppn_apps.Randgen.wcet ~scale:(Rat.make 7 10)
          (Derive.const_wcet Rat.one) net
      in
      match Service.register svc ~name:"heavy" ~wcet net with
      | Ok _ ->
        Printf.eprintf "reject-demo: heavy tenant was unexpectedly admitted\n";
        demo_failed := true
      | Error reason ->
        rows :=
          { Service_report.row_name = "heavy"; row_decision = Admission.Rejected reason }
          :: !rows;
        Printf.printf "reject-demo: %s\n"
          (Json.to_string (Admission.reason_to_json reason));
        (match reason with
        | Admission.No_interface _ | Admission.Compose_utilization _
        | Admission.Compose_concurrency _ -> ()
        | _ ->
          Printf.eprintf
            "reject-demo: rejection was not an MPR reason (need procs >= 4?)\n";
          demo_failed := true)
    end;
    let rows = List.rev !rows in
    Service_report.admission_table Format.std_formatter rows;
    let resident = List.length (Service.tenants svc) in
    Printf.printf "resident: %d tenants on M=%d (%d rejected)\n" resident procs
      (List.length rows - resident);
    if resident < min_admitted then begin
      Printf.eprintf "serve: only %d tenants admitted, need %d\n" resident
        min_admitted;
      exit 1
    end;
    (* sporadic-capable targets for the scripted producers *)
    let targets =
      Array.of_list
        (List.filter_map
           (fun ten ->
             match Service_tenant.sporadic_events ten with
             | [] -> None
             | sp ->
               let hp_ms =
                 int_of_float (Rat.to_float (Service_tenant.hyperperiod ten))
               in
               Some
                 ( ten.Service_tenant.name,
                   Array.of_list (List.map fst sp),
                   max 1 (hp_ms * frames) ))
           (Service.tenants svc))
    in
    let reports = ref [] in
    let jobs =
      Rt_util.Pool.clamp_jobs
        (if jobs <= 0 then Rt_util.Pool.default_jobs () else jobs)
    in
    let oracle = ref None in
    Rt_util.Pool.with_pool ~jobs (fun pool ->
        for e = 1 to epochs do
          if Array.length targets > 0 && events > 0 && producers > 0 then begin
            (* async ingestion: each producer is its own domain pushing
               into the MPSC queue; queue-full submits are dropped and
               counted as backpressure *)
            let per = max 1 (events / producers) in
            let doms =
              List.init producers (fun p ->
                  Domain.spawn (fun () ->
                      let prng = Rt_util.Prng.create (seed + (131 * e) + p) in
                      for _ = 1 to per do
                        let tname, sp_names, horizon_ms =
                          targets.(Rt_util.Prng.int prng (Array.length targets))
                        in
                        let process =
                          sp_names.(Rt_util.Prng.int prng (Array.length sp_names))
                        in
                        let stamp = Rat.of_int (Rt_util.Prng.int prng horizon_ms) in
                        ignore (Service.submit svc ~tenant:tname ~process ~stamp)
                      done))
            in
            List.iter Domain.join doms
          end;
          let r = Service.run_epoch ~pool svc in
          reports := r :: !reports;
          Printf.printf
            "epoch %d: drained %d, consumed %d, dropped %d, unhandled %d, \
             backpressure %d, jobs %d, misses %d (%.4fs)\n"
            r.Service.epoch r.Service.events_drained r.Service.events_consumed
            r.Service.events_dropped r.Service.events_unhandled
            (Service.backpressure svc)
            r.Service.jobs_executed r.Service.deadline_misses r.Service.wall_s
        done;
        if verify then oracle := Some (Service.verify ~pool svc));
    (match !oracle with
    | None -> ()
    | Some results ->
      let bad = List.filter (fun (_, ok) -> not ok) results in
      Printf.printf "determinism oracle: %d/%d tenants match their standalone run\n"
        (List.length results - List.length bad)
        (List.length results);
      List.iter (fun (n, _) -> Printf.eprintf "oracle mismatch: %s\n" n) bad;
      if bad <> [] then exit 1);
    Option.iter
      (fun path ->
        let doc =
          Service_report.serve_json ~status:(Service.status_json svc)
            ~admissions:rows ~epochs:(List.rev !reports) ~oracle:!oracle
        in
        let oc = open_out path in
        output_string oc (Json.to_string doc);
        output_char oc '\n';
        close_out oc;
        Printf.printf "serve report written to %s\n" path)
      json_out;
    if !demo_failed then exit 1
  in
  let apps_opt =
    Arg.(
      value & opt string ""
      & info [ "apps" ] ~docv:"A,B,…"
          ~doc:"Comma-separated applications (names or .fppn files) to \
                register as tenants.")
  in
  let tenants_opt =
    Arg.(
      value & opt int 0
      & info [ "tenants" ] ~docv:"N"
          ~doc:"Additionally register $(docv) small random tenants.")
  in
  let epochs_opt =
    Arg.(
      value & opt int 2
      & info [ "epochs" ] ~docv:"E" ~doc:"Service epochs to run.")
  in
  let events_opt =
    Arg.(
      value & opt int 256
      & info [ "events" ] ~docv:"N"
          ~doc:"Scripted sporadic events submitted per epoch (split across \
                producers).")
  in
  let producers_opt =
    Arg.(
      value & opt int 2
      & info [ "producers" ] ~docv:"P"
          ~doc:"Producer domains submitting events concurrently.")
  in
  let queue_opt =
    positive ~flag:"--queue-capacity"
      Arg.(
        value & opt int 4096
        & info [ "queue-capacity" ] ~docv:"N"
            ~doc:"Ingestion queue capacity (rounded up to a power of two); \
                  overflow counts as backpressure.")
  in
  let jobs_opt =
    Arg.(
      value & opt int 0
      & info [ "jobs" ] ~docv:"J"
          ~doc:"Worker pool size for tenant epochs (0 = one per core).")
  in
  let reject_demo_flag =
    Arg.(
      value & flag
      & info [ "reject-demo" ]
          ~doc:"Try to register a deliberately over-demanding tenant and \
                require a machine-readable MPR rejection (exit 1 otherwise).")
  in
  let verify_flag =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"After the last epoch, replay every tenant's most recent epoch \
                standalone and require signature equality (exit 1 otherwise).")
  in
  let min_admitted_opt =
    Arg.(
      value & opt int 0
      & info [ "min-admitted" ] ~docv:"N"
          ~doc:"Fail (exit 1) unless at least $(docv) tenants are resident.")
  in
  let json_opt =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the full serve report as JSON.")
  in
  let term =
    Term.(
      const run $ apps_opt $ tenants_opt $ procs_arg $ frames_arg $ epochs_opt
      $ events_opt $ producers_opt $ seed_arg $ queue_opt $ jobs_opt
      $ reject_demo_flag $ verify_flag $ min_admitted_opt $ json_opt)
  in
  Cmd.v (Cmd.info "serve" ~doc:serve_doc) term

(* Every subcommand runs under this one handler.  [Rat.Overflow] out of
   any analysis means the application's times, or sums of them, do not
   fit an int as exact rationals: bad input, one line and exit 2.  Any
   other exception is an internal error, reported as Cmdliner reports
   one (exit 125). *)
let eval cmd =
  match Cmd.eval ~catch:false cmd with
  | code -> code
  | exception Rat.Overflow ->
    prerr_endline
      "fppn-tool: the application's times overflow an int in exact \
       arithmetic (no rational or integer tick grid holds them)";
    2
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Format.eprintf "fppn-tool: @[<v>internal error, uncaught exception:@,%s@,%s@]@."
      (Printexc.to_string e)
      (Printexc.raw_backtrace_to_string bt);
    Cmd.Exit.internal_error

let () =
  let doc =
    "Deterministic execution of real-time multiprocessor applications \
     (FPPN; Poplavko et al., DATE 2015)"
  in
  let info = Cmd.info "fppn-tool" ~version:"1.0.0" ~doc in
  exit
    (eval
       (Cmd.group info
          [
            info_cmd; lint_cmd; certify_cmd; check_cmd; fuzz_cmd; report_cmd; derive_cmd;
            schedule_cmd; sched_cmd; exact_cmd; simulate_cmd; run_cmd;
            profile_cmd; trace_validate_cmd; buffers_cmd; dimension_cmd;
            rta_cmd; serve_cmd; fmt_cmd; dot_cmd;
          ]))

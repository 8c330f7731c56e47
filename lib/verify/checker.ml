module Rat = Rt_util.Rat
module Network = Fppn.Network
module Semantics = Fppn.Semantics
module Derive = Taskgraph.Derive
module Analysis = Taskgraph.Analysis
module List_scheduler = Sched.List_scheduler
module Engine = Runtime.Engine
module Exec_time = Runtime.Exec_time
module Exec_trace = Runtime.Exec_trace
module Translate = Timedauto.Translate

type check = { name : string; passed : bool; detail : string }
type report = { checks : check list; passed : bool }

type latency_spec = {
  l_source : string;
  l_sink : string;
  max_reaction : Rat.t;
}

type config = {
  processor_counts : int list;
  frames : int;
  jitter_seeds : int list;
  sporadic_density : float;
  seed : int;
  inputs : Fppn.Netstate.input_feed;
  latency_specs : latency_spec list;
}

let default_config =
  {
    processor_counts = [ 1; 2; 4 ];
    frames = 2;
    jitter_seeds = [ 1; 2; 3 ];
    sporadic_density = 0.5;
    seed = 42;
    inputs = Fppn.Netstate.no_inputs;
    latency_specs = [];
  }

let run ?(config = default_config) ~wcet net =
  let checks = ref [] in
  let add name passed detail = checks := { name; passed; detail } :: !checks in
  (* static lint first: statically detectable problems fail fast, before
     any task graph is derived or a single job is simulated *)
  let lint =
    Fppn_lint.Lint.lint_network ~wcet:(fun name -> Some (wcet name)) net
  in
  let lint_errors = Fppn_lint.Diagnostic.has_errors lint in
  add "static lint" (not lint_errors)
    (if lint_errors then
       Format.asprintf "%a"
         (Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
            Fppn_lint.Diagnostic.pp)
         (List.filter Fppn_lint.Diagnostic.is_error lint)
     else
       let _, w, i = Fppn_lint.Diagnostic.counts lint in
       Printf.sprintf "no errors, %d warning(s), %d info(s)" w i);
  if lint_errors then
    let checks = List.rev !checks in
    { checks; passed = false }
  else begin
  (* subclass + derivation *)
  (match Derive.derive ~wcet net with
  | Error e ->
    add "task-graph derivation (Sec. III-A)" false
      (Format.asprintf "%a" Derive.pp_error e)
  | Ok d ->
    let g = d.Derive.graph in
    add "task-graph derivation (Sec. III-A)" true
      (Printf.sprintf "H = %s ms, %d jobs, %d edges"
         (Rat.to_string d.Derive.hyperperiod)
         (Taskgraph.Graph.n_jobs g) (Taskgraph.Graph.n_edges g));
    (* static shardability certification: every channel's accessor jobs
       proven precedence-ordered at the quotient level.  Hazards/hotspots
       surface in the detail either way. *)
    (let cert =
       Fppn_lint.Certificate.of_network ~wcet:(fun n -> Some (wcet n)) net
     in
     let diags = Fppn_lint.Certificate.diagnostics cert in
     (* hazards (abstentions) and hotspots are not failures — only a
        proven unordered pair (FPPN060, error severity) is *)
     add "static certification (shardability)"
       (not (Fppn_lint.Diagnostic.has_errors diags))
       (if diags = [] then
          Printf.sprintf "all %d channel(s) ordered, %d classes"
            (List.length cert.Fppn_lint.Certificate.channels)
            cert.Fppn_lint.Certificate.classes
        else
          Format.asprintf "%a"
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
               Fppn_lint.Diagnostic.pp)
            diags));
    let analysis = Analysis.analyse g in
    let load = analysis.load.value in
    let horizon = Rat.mul d.Derive.hyperperiod (Rat.of_int config.frames) in
    let traces =
      Engine.handled_traces net d ~frames:config.frames
        (Fppn_apps.Randgen.random_traces ~seed:config.seed ~horizon
           ~density:config.sporadic_density net)
    in
    let zd =
      Semantics.run ~inputs:config.inputs net
        (Semantics.invocations ~sporadic:traces ~horizon net)
    in
    let zd_sig = Semantics.signature zd in
    (* processor counts below the Prop. 3.1 lower bound cannot work by
       the paper's own necessary condition: report them as informational
       and only demand feasibility above the bound *)
    let lower_bound = max 1 (Rat.ceil load) in
    (* service admission: the MPR contract the multi-tenant service
       would grant this network on an otherwise-empty platform of the
       largest checked size.  Acceptance must be consistent with the
       Prop. 3.1 lower bound (the admission test checks it first); a
       rejection is a legitimate verdict, surfaced in the detail. *)
    (let m = List.fold_left max 1 config.processor_counts in
     let cand =
       Fppn_service.Admission.candidate ~analysis ~name:(Network.name net)
         ~wcet net d
     in
     let decision = Fppn_service.Admission.decide ~procs:m ~resident:[] cand in
     let passed =
       match decision with
       | Fppn_service.Admission.Accepted _ -> lower_bound <= m
       | Fppn_service.Admission.Rejected _ -> true
     in
     add
       (Printf.sprintf "service admission (MPR), M=%d" m)
       passed
       (Format.asprintf "%a" Fppn_service.Admission.pp_decision decision));
    List.iter
      (fun m ->
        if m < lower_bound then
          add
            (Printf.sprintf "capacity, M=%d" m)
            true
            (Printf.sprintf
               "below the Prop. 3.1 lower bound (ceil(load %.3f) = %d) — skipped"
               (Rat.to_float load) lower_bound)
        else begin
        add
          (Printf.sprintf "necessary condition (Prop. 3.1), M=%d" m)
          (Analysis.necessary_condition analysis ~processors:m = Ok ())
          (Printf.sprintf "load %.3f" (Rat.to_float load));
        match snd (List_scheduler.auto ~n_procs:m g) with
        | None ->
          add (Printf.sprintf "static schedule, M=%d" m) false
            "no heuristic produced a feasible schedule"
        | Some a ->
          let sched = a.List_scheduler.schedule in
          add (Printf.sprintf "static schedule, M=%d" m) true
            (Printf.sprintf "heuristic %s, makespan %s ms"
               (Sched.Priority.to_string a.List_scheduler.heuristic)
               (Rat.to_string a.List_scheduler.makespan));
          (* determinism + compliance under jitter *)
          List.iter
            (fun jitter_seed ->
              let cfg =
                { (Engine.default_config ~frames:config.frames ~n_procs:m ()) with
                  Engine.sporadic = traces;
                  inputs = config.inputs;
                  exec = Exec_time.uniform ~seed:jitter_seed ~min_fraction:0.25 }
              in
              let rt = Engine.run net d sched cfg in
              add
                (Printf.sprintf "determinism (Prop. 2.1), M=%d, jitter seed %d" m
                   jitter_seed)
                (Fppn.Semantics.equal_signature zd_sig (Engine.signature rt))
                "channel histories vs zero-delay reference";
              add
                (Printf.sprintf "deadlines (Prop. 4.1), M=%d, jitter seed %d" m
                   jitter_seed)
                (rt.Engine.stats.Exec_trace.misses = 0)
                (Printf.sprintf "%d miss(es)" rt.Engine.stats.Exec_trace.misses);
              let violations = Exec_trace.check g (Engine.trace rt) in
              add
                (Printf.sprintf "trace compliance, M=%d, jitter seed %d" m
                   jitter_seed)
                (violations = [])
                (Printf.sprintf "%d violation(s)" (List.length violations)))
            config.jitter_seeds;
          (* timed-automata backend, one seed per M *)
          let ta_cfg =
            { (Engine.default_config ~frames:config.frames ~n_procs:m ()) with
              Engine.sporadic = traces;
              inputs = config.inputs;
              exec = Exec_time.uniform ~seed:config.seed ~min_fraction:0.25 }
          in
          let ta = Translate.execute (Translate.build net d sched ta_cfg) in
          add
            (Printf.sprintf "timed-automata backend, M=%d" m)
            (Fppn.Semantics.equal_signature zd_sig (Translate.signature ta))
            "generated TA network vs zero-delay reference";
          (* declared end-to-end constraints, on the WCET execution *)
          if config.latency_specs <> [] then begin
            let wcet_run =
              Engine.run net d sched
                { (Engine.default_config ~frames:config.frames ~n_procs:m ()) with
                  Engine.sporadic = traces;
                  inputs = config.inputs }
            in
            List.iter
              (fun spec ->
                match
                  Runtime.Latency.analyse g ~source:spec.l_source
                    ~sink:spec.l_sink (Engine.trace wcet_run)
                with
                | l ->
                  add
                    (Printf.sprintf "end-to-end %s -> %s <= %s ms, M=%d"
                       spec.l_source spec.l_sink
                       (Rat.to_string spec.max_reaction)
                       m)
                    Rat.(l.Runtime.Latency.max_reaction <= spec.max_reaction)
                    (Printf.sprintf "max reaction %s ms"
                       (Rat.to_string l.Runtime.Latency.max_reaction))
                | exception Invalid_argument msg ->
                  add
                    (Printf.sprintf "end-to-end %s -> %s, M=%d" spec.l_source
                       spec.l_sink m)
                    false msg)
              config.latency_specs
          end
        end)
      config.processor_counts;
    (* buffers *)
    let buf = Fppn.Buffer_analysis.analyse ~hyperperiods:(max 2 config.frames) ~inputs:config.inputs net in
    let unbounded = Fppn.Buffer_analysis.unbounded_channels buf in
    add "FIFO buffer bounds" (unbounded = [])
      (if unbounded = [] then
         Printf.sprintf "max occupancy %d"
           (List.fold_left
              (fun acc r -> max acc r.Fppn.Buffer_analysis.max_occupancy)
              0 buf.Fppn.Buffer_analysis.channels)
       else
         "unbounded: "
         ^ String.concat ", "
             (List.map (fun r -> r.Fppn.Buffer_analysis.channel) unbounded)));
  let checks = List.rev !checks in
  { checks; passed = List.for_all (fun (c : check) -> c.passed) checks }
  end

let pp ppf r =
  List.iter
    (fun (c : check) ->
      Format.fprintf ppf "  [%s] %-55s %s@."
        (if c.passed then "ok" else "FAIL")
        c.name c.detail)
    r.checks;
  Format.fprintf ppf "verdict: %s@."
    (if r.passed then "all checks passed" else "SOME CHECKS FAILED")

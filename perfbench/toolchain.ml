(* toolchain: a closed batch, sequential, no pool.  Each pass takes the
   application set from source to a certified, deployable plan — parse
   or build, lint, derive, List_scheduler.auto, certify — and runs the
   plan's first frame.  Derivation and list scheduling do nearly all
   the work here and almost none in the other workloads. *)

open Common
module Lint = Fppn_lint.Lint

let source_file = "examples/sensor_fusion.fppn"

type app = {
  label : string;
  procs : int;
  inputs : Fppn.Netstate.input_feed;
  source : unit -> Fppn.Network.t * Derive.wcet_map;
      (** parse/elaborate or build, then lint *)
}

type ran = {
  r_label : string;
  r_net : Fppn.Network.t;
  r_derive : Derive.t;
  r_config : Engine.config;
  r_result : Engine.result;
}

type state = {
  apps : app list;
  mutable first : ran list;  (** the first pass's runs *)
  mutable last : ran list;  (** the latest later pass's runs *)
  mutable makespan : float;
}

let lint_built ~procs (net, wcet) =
  ignore
    (span "lint.lint" (fun () ->
         Lint.lint_network ~wcet:(fun n -> Some (wcet n)) ~processors:procs net));
  (net, wcet)

let built ~label ~procs ?(inputs = Fppn.Netstate.no_inputs) build =
  { label; procs; inputs; source = (fun () -> lint_built ~procs (span "apps.build" build)) }

(* ~1000 processes, M = 4: 950 periodic over a 200 ms hyperperiod and 50
   sporadic servers; budgets at 1/1000 of the period keep it feasible *)
let random_params seed =
  {
    Fppn_apps.Randgen.seed;
    n_periodic = 950;
    n_sporadic = 50;
    periods = [ 100; 200 ];
    channel_density = 0.003;
    max_burst = 2;
  }

let random_wcet net =
  Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 1000) (Derive.const_wcet Rat.one) net

let setup ~seed _acc =
  let text = In_channel.with_open_bin source_file In_channel.input_all in
  let fft = Fppn_apps.Fft.default_params in
  let sensor_fusion =
    {
      label = "sensor_fusion";
      procs = 2;
      inputs = Fppn.Netstate.no_inputs;
      source =
        (fun () ->
          let ast = span "lang.parse" (fun () -> Fppn_lang.Parser.parse text) in
          ignore (span "lint.lint" (fun () -> Lint.lint_ast ~processors:2 ast));
          let net = span "lang.elaborate" (fun () -> Fppn_lang.Elaborate.to_network ast) in
          (net, Fppn_lang.Elaborate.wcet_map ~default:Rat.one ast));
    }
  in
  (* the random application's source is its drawn topology *)
  let random_spec =
    span "apps.build" (fun () ->
        Fppn_apps.Randgen.spec_of_params (random_params (7919 * seed)))
  in
  {
    apps =
      [
        sensor_fusion;
        built ~label:"fig1" ~procs:2
          ~inputs:(Fppn_apps.Fig1.input_feed ~samples:8)
          (fun () -> (Fppn_apps.Fig1.network (), Fppn_apps.Fig1.wcet));
        built ~label:"fft" ~procs:2
          ~inputs:(Fppn_apps.Fft.input_feed fft ~frames:1)
          (fun () -> (Fppn_apps.Fft.network fft, Fppn_apps.Fft.wcet_map fft));
        built ~label:"automotive" ~procs:2 ~inputs:Fppn_apps.Automotive.input_feed
          (fun () -> (Fppn_apps.Automotive.network (), Fppn_apps.Automotive.wcet));
        built ~label:"fms-original" ~procs:2 (fun () ->
            (Fppn_apps.Fms.original (), Fppn_apps.Fms.wcet));
        built ~label:"random-1000" ~procs:4 (fun () ->
            let net = Fppn_apps.Randgen.build_exn random_spec in
            (net, random_wcet net));
      ];
    first = [];
    last = [];
    makespan = 0.0;
  }

(* One pass.  It starts from a compacted heap, so that every pass finds
   the heap alike whatever the previous one left, and samples plan_s
   and the loop latency itself.  Its throughput is planning
   throughput: the jobs of the derived graphs taken to a certified plan
   and run for their first frame, per second of the pass. *)
let step st acc ~harvest =
  Gc.compact ();
  let t0 = now_ns () in
  let makespan = ref 0.0 and planned = ref 0 and ran = ref [] in
  List.iter
    (fun app ->
      let net, d, schedule =
        fst @@ Calib.bracket (fun () ->
            let net, wcet = app.source () in
            let d = derive acc ~wcet net in
            let s = auto ~n_procs:app.procs d.Derive.graph in
            if s <> None then ignore (certify ~wcet net);
            (net, d, s))
      in
      acc.attempted <- acc.attempted + 1;
      (match schedule with
      | None -> acc.failed <- acc.failed + 1
      | Some s ->
        makespan := !makespan +. makespan_ms d s;
        let config =
          { (Engine.default_config ~frames:1 ~n_procs:app.procs ()) with
            Engine.inputs = app.inputs }
        in
        let r = Engine.run net d s config in
        if r.Engine.stats.Exec_trace.misses > 0 then acc.failed <- acc.failed + 1;
        planned := !planned + Graph.n_jobs d.Derive.graph;
        ran :=
          { r_label = app.label; r_net = net; r_derive = d; r_config = config; r_result = r }
          :: !ran);
      harvest `Op)
    st.apps;
  let pass = now_ns () - t0 in
  acc.plan_ns <- sample pass :: acc.plan_ns;
  acc.epoch_ns <- sample pass :: acc.epoch_ns;
  acc.jobs <- acc.jobs + !planned;
  acc.exec_ns <- acc.exec_ns + pass;
  st.makespan <- !makespan;
  if st.first = [] then st.first <- !ran else st.last <- !ran

(* The latest pass's runs, and the first pass's, are compared with the
   zero-delay semantics of the latest pass's invocations. *)
let check st acc =
  List.iter
    (fun r ->
      let first = List.filter (fun f -> f != r && f.r_label = r.r_label) st.first in
      check_results acc ~label:r.r_label
        (reference r.r_net r.r_derive r.r_config)
        (r.r_result :: List.map (fun f -> f.r_result) first))
    (if st.last = [] then st.first else st.last)

let spec =
  {
    Workload.name = "toolchain";
    pool_domains = 1;
    setup;
    step;
    min_steps = 1;
    traced_steps = 1;
    makespan_ms = (fun st -> st.makespan);
    check;
    teardown = ignore;
  }

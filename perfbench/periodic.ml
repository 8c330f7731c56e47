(* periodic: long multi-frame runs of plans built during set-up, with
   constant durations and no sporadic stamps, so steady-frame replay
   and the two-phase sharded protocol do the work while compilation
   and the event loop run once per run.  The inputs: FFT with its
   input feed, fig1, FMS reduced (periodic traffic only), and a seeded
   4000-process Randgen network at M = 4 run through both Engine.run
   and Engine.run_sharded ~shards:2. *)

open Common

let shards = 2

type state = { runs : run list; makespan : float }

(* one job per process per 100 ms frame; budgets of one to four
   microseconds, drawn per process from the seed, keep every frame far
   inside its deadline and every duration a whole number of ticks, so
   sharding engages *)
let random_params seed =
  {
    Fppn_apps.Randgen.seed;
    n_periodic = 4000;
    n_sporadic = 0;
    periods = [ 100 ];
    channel_density = 3e-4;
    max_burst = 1;
  }

(* On this net a replayed frame costs about two thirds of a sharded
   frame, and the sequential run's fixed part (two template frames,
   compilation) about thirty replayed frames.  These sizes give steady
   replay (engine.replay_s) and the sharded path (engine.exec_sharded_s)
   each more than a third of the step time; perfbench/README.md has the
   traced shares. *)
let random_frames = 64
let sharded_frames = 40

let random_wcet seed name =
  Rat.make (1 + (Hashtbl.hash (seed, name) mod 4)) 1000

let setup ~seed acc =
  let fft = Fppn_apps.Fft.default_params in
  let fft_frames = 100 and fig1_frames = 100 and fms_frames = 2 in
  let apps =
    span "apps.build" (fun () ->
        let rnd = Fppn_apps.Randgen.network (random_params (7919 * seed)) in
        [
          ( "fft", Fppn_apps.Fft.network fft, Fppn_apps.Fft.wcet_map fft, 2,
            fft_frames, Fppn_apps.Fft.input_feed fft ~frames:fft_frames );
          ( "fig1", Fppn_apps.Fig1.network (), Fppn_apps.Fig1.wcet, 2,
            fig1_frames, Fppn_apps.Fig1.input_feed ~samples:(fig1_frames + 1) );
          ( "fms-reduced", Fppn_apps.Fms.reduced (), Fppn_apps.Fms.wcet, 2,
            fms_frames, Fppn.Netstate.no_inputs );
          ( "random-4000", rnd, random_wcet seed, 4, random_frames,
            Fppn.Netstate.no_inputs );
        ])
  in
  let t_plan = now_ns () in
  let makespan = ref 0.0 in
  let runs =
    List.concat_map
      (fun (label, net, wcet, procs, frames, inputs) ->
        let plan = plan_app acc ~label ~procs ~wcet net in
        makespan := !makespan +. makespan_ms (fst plan) (snd plan);
        let config frames =
          { (Engine.default_config ~frames ~n_procs:procs ()) with Engine.inputs }
        in
        make_run ~label net plan (config frames)
        ::
        (if procs > shards then
           [ make_run ~shards ~label:(label ^ "-sharded") net plan (config sharded_frames) ]
         else []))
      apps
  in
  let dt = now_ns () - t_plan in
  acc.plan_ns <- sample dt :: acc.plan_ns;
  { runs; makespan = !makespan }

let step st acc ~harvest =
  List.iter
    (fun r ->
      exec_run acc r;
      harvest `Op)
    st.runs

let check st acc = List.iter (check_run acc) st.runs

let spec =
  {
    Workload.name = "periodic";
    pool_domains = shards;
    setup;
    step;
    min_steps = 10;
    traced_steps = 20;
    makespan_ms = (fun st -> st.makespan);
    check;
    teardown = ignore;
  }

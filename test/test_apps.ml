module Rat = Rt_util.Rat
module V = Fppn.Value
module Network = Fppn.Network
module Process = Fppn.Process
module Semantics = Fppn.Semantics
module Derive = Taskgraph.Derive
module Graph = Taskgraph.Graph
module Analysis = Taskgraph.Analysis

let ms = Rat.of_int
let rat = Alcotest.testable Rat.pp Rat.equal

let qprop name ?(count = 50) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- FFT ----------------------------------------------------------------- *)

let approx_complex (ar, ai) (br, bi) =
  Float.abs (ar -. br) < 1e-9 && Float.abs (ai -. bi) < 1e-9

let run_fft_once p feed =
  let net = Fppn_apps.Fft.network p in
  let res =
    Semantics.run ~inputs:feed net
      (Semantics.invocations ~horizon:(ms p.Fppn_apps.Fft.period_ms) net)
  in
  match List.assoc "spectrum" res.Semantics.output_history with
  | [ v ] -> Fppn_apps.Fft.spectrum_of_output v
  | _ -> Alcotest.fail "expected exactly one spectrum sample"

let test_fft_process_count () =
  List.iter
    (fun (n, expected) ->
      let p = { Fppn_apps.Fft.default_params with n } in
      Alcotest.(check int)
        (Printf.sprintf "n=%d process count" n)
        expected
        (Network.n_processes (Fppn_apps.Fft.network p));
      Alcotest.(check int) "n_processes agrees" expected (Fppn_apps.Fft.n_processes p))
    [ (2, 3); (4, 6); (8, 14); (16, 34) ]

let test_fft_impulse () =
  let p = Fppn_apps.Fft.default_params in
  let bins = run_fft_once p (Fppn_apps.Fft.impulse_feed p) in
  Array.iter
    (fun bin ->
      Alcotest.(check bool) "impulse -> flat spectrum" true
        (approx_complex bin (1.0, 0.0)))
    bins

let test_fft_matches_reference_dft () =
  let p = Fppn_apps.Fft.default_params in
  (* use the app's own default block 1 as input *)
  let feed = Fppn_apps.Fft.input_feed p ~frames:1 in
  let bins = run_fft_once p feed in
  let input =
    match feed "fft_in" 1 with
    | V.List l -> Array.of_list (List.map V.to_complex l)
    | _ -> Alcotest.fail "bad feed"
  in
  let expected = Fppn_apps.Fft.reference_dft input in
  Array.iteri
    (fun i bin ->
      let er, ei = expected.(i) and br, bi = bin in
      Alcotest.(check bool)
        (Printf.sprintf "bin %d matches the naive DFT" i)
        true
        (Float.abs (er -. br) < 1e-6 && Float.abs (ei -. bi) < 1e-6))
    bins

let prop_fft_random_signals =
  qprop "pipelined FFT equals naive DFT on random signals" ~count:30
    QCheck2.Gen.(
      pair (oneofl [ 4; 8; 16 ])
        (list_size (return 16) (float_bound_inclusive 2.0)))
    (fun (n, floats) ->
      let p = { Fppn_apps.Fft.default_params with n } in
      let samples =
        List.init n (fun i ->
            let re = List.nth floats (i mod List.length floats) in
            let im = List.nth floats ((i + 3) mod List.length floats) -. 1.0 in
            V.complex re im)
      in
      let feed = Fppn.Netstate.feed_of_list [ ("fft_in", [ V.List samples ]) ] in
      let bins = run_fft_once p feed in
      let expected =
        Fppn_apps.Fft.reference_dft
          (Array.of_list (List.map V.to_complex samples))
      in
      Array.for_all2
        (fun (ar, ai) (br, bi) ->
          Float.abs (ar -. br) < 1e-6 && Float.abs (ai -. bi) < 1e-6)
        bins expected)

let test_fft_streaming_successive_frames () =
  (* blocks are independent across frames: running 3 frames produces the
     DFT of each block *)
  let p = Fppn_apps.Fft.default_params in
  let net = Fppn_apps.Fft.network p in
  let feed = Fppn_apps.Fft.input_feed p ~frames:3 in
  let res =
    Semantics.run ~inputs:feed net (Semantics.invocations ~horizon:(ms 600) net)
  in
  let spectra = List.assoc "spectrum" res.Semantics.output_history in
  Alcotest.(check int) "three spectra" 3 (List.length spectra);
  List.iteri
    (fun i v ->
      let input =
        match feed "fft_in" (i + 1) with
        | V.List l -> Array.of_list (List.map V.to_complex l)
        | _ -> Alcotest.fail "bad feed"
      in
      let expected = Fppn_apps.Fft.reference_dft input in
      let bins = Fppn_apps.Fft.spectrum_of_output v in
      Alcotest.(check bool)
        (Printf.sprintf "frame %d spectrum" (i + 1))
        true
        (Array.for_all2
           (fun (ar, ai) (br, bi) ->
             Float.abs (ar -. br) < 1e-6 && Float.abs (ai -. bi) < 1e-6)
           bins expected))
    spectra

let test_fft_overhead_variant () =
  let p = Fppn_apps.Fft.default_params in
  let net = Fppn_apps.Fft.network_with_overhead_job p in
  Alcotest.(check int) "15 processes with the overhead job" 15
    (Network.n_processes net);
  let d =
    Derive.derive_exn
      ~wcet:(Fppn_apps.Fft.wcet_map_with_overhead p ~overhead:(ms 41))
      net
  in
  let g = d.Derive.graph in
  (* the overhead job precedes the generator *)
  let oid = Graph.find_job g ~proc:(Network.find net Fppn_apps.Fft.overhead_process) ~k:1 in
  let gid = Graph.find_job g ~proc:(Network.find net "generator") ~k:1 in
  Alcotest.(check bool) "overhead -> generator edge" true (Graph.has_edge g oid gid)

(* --- FMS ------------------------------------------------------------------ *)

let test_fms_structure () =
  let net = Fppn_apps.Fms.reduced () in
  Alcotest.(check int) "12 processes" 12 (Network.n_processes net);
  Alcotest.(check int) "7 sporadic config processes" 7
    (Array.to_list (Network.processes net)
    |> List.filter Process.is_sporadic
    |> List.length);
  Alcotest.check rat "reduced hyperperiod including sporadic periods"
    (Rat.lcm_list (List.map ms [ 200; 5000; 400; 1000; 1600 ]))
    (Network.hyperperiod net);
  match Network.user_map net with
  | Error _ -> Alcotest.fail "FMS is in the scheduling subclass"
  | Ok users ->
    let user_of name =
      match users.(Network.find net name) with
      | Some u -> Process.name (Network.process net u)
      | None -> "-"
    in
    Alcotest.(check string) "BCPConfig -> HighFreqBCP" "HighFreqBCP" (user_of "BCPConfig");
    Alcotest.(check string) "MagnDeclinConfig -> MagnDeclin" "MagnDeclin"
      (user_of "MagnDeclinConfig");
    Alcotest.(check string) "PerformanceConfig -> Performance" "Performance"
      (user_of "PerformanceConfig");
    Alcotest.(check string) "AnemoConfig -> SensorInput" "SensorInput"
      (user_of "AnemoConfig")

let test_fms_task_graph_counts () =
  (* Sec. V-B: reduced hyperperiod 10 s, 812 jobs; jobs / raw edges /
     reduced edges pinned for both variants *)
  let counts d =
    (Graph.n_jobs d.Derive.graph, d.Derive.raw_edges, Graph.n_edges d.Derive.graph)
  in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet (Fppn_apps.Fms.reduced ()) in
  Alcotest.check rat "hyperperiod 10 s" (ms 10_000) d.Derive.hyperperiod;
  Alcotest.(check (triple int int int)) "reduced: 812 jobs, 71666 raw, 1089 edges"
    (812, 71_666, 1089) (counts d);
  let d40 = Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet (Fppn_apps.Fms.original ()) in
  Alcotest.check rat "original hyperperiod 40 s" (ms 40_000) d40.Derive.hyperperiod;
  Alcotest.(check (triple int int int))
    "original: 2798 jobs, 949403 raw, 3855 edges" (2798, 949_403, 3855)
    (counts d40)

let test_fms_load () =
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet (Fppn_apps.Fms.reduced ()) in
  let l = Analysis.load d.Derive.graph in
  let v = Rat.to_float l.Analysis.value in
  Alcotest.(check bool) "load ~ 0.23 as reported" true (v > 0.18 && v < 0.28)

let test_fms_sporadic_deadline_invariant () =
  (* every sporadic deadline exceeds its user period, so servers keep
     the plain user period (design note in fms.mli) *)
  let net = Fppn_apps.Fms.reduced () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet net in
  List.iter
    (fun (s : Derive.server_info) ->
      let user = Network.process net s.Derive.user in
      Alcotest.check rat
        (Process.name (Network.process net s.Derive.sporadic) ^ " server period")
        (Process.period user) s.Derive.server_period)
    d.Derive.servers

let test_fms_random_traces_valid () =
  let net = Fppn_apps.Fms.reduced () in
  let traces =
    Fppn_apps.Fms.random_config_traces ~seed:5 ~horizon:(ms 10_000) ~density:0.7 net
  in
  Alcotest.(check int) "one trace per sporadic" 7 (List.length traces);
  List.iter
    (fun (name, stamps) ->
      let ev = Process.event (Network.process net (Network.find net name)) in
      Alcotest.(check bool) (name ^ " trace valid") true
        (Fppn.Event.is_valid_sporadic_trace ev stamps))
    traces

let test_fms_original_scale () =
  (* the unreduced 40 s hyperperiod: 2798 jobs through the whole
     pipeline — the scale that motivated the paper's period reduction *)
  let net = Fppn_apps.Fms.original () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet net in
  let g = d.Derive.graph in
  Alcotest.(check int) "2798 jobs" 2798 (Graph.n_jobs g);
  Alcotest.check rat "40 s hyperperiod" (ms 40_000) d.Derive.hyperperiod;
  match snd (Sched.List_scheduler.auto ~n_procs:1 g) with
  | Some a ->
    Alcotest.(check bool) "single-processor feasible at low load" true
      a.Sched.List_scheduler.feasible
  | None -> Alcotest.fail "fms-original should schedule on one processor"

let test_fms_rm_priorities () =
  let net = Fppn_apps.Fms.reduced () in
  let prio = Sched.Rta.rm_priorities net in
  let rank name = List.assoc name prio in
  Alcotest.(check bool) "SensorInput highest" true (rank "SensorInput" = 0);
  Alcotest.(check bool) "HighFreq above MagnDeclin" true
    (rank "HighFreqBCP" < rank "MagnDeclin");
  Alcotest.(check bool) "LowFreq lowest periodic" true
    (rank "LowFreqBCP" > rank "Performance")

(* --- Fig. 1 behaviours ------------------------------------------------------ *)

let test_fig1_dataflow () =
  let net = Fppn_apps.Fig1.network () in
  let res =
    Semantics.run
      ~inputs:(Fppn_apps.Fig1.input_feed ~samples:8)
      net
      (Semantics.invocations ~horizon:(ms 400) net)
  in
  let out_a = List.assoc "out_a" res.Semantics.output_history in
  (* OutputA drains FilterA's double-rate FIFO: 1 sample at t=0 (only
     one FilterA job has run), then 2 per period *)
  Alcotest.(check int) "OutputA samples" 3 (List.length out_a);
  (* FilterA holds the last sample between input periods: out_b gets a
     value every other OutputB job *)
  let out_b = List.assoc "out_b" res.Semantics.output_history in
  Alcotest.(check int) "OutputB samples" 4 (List.length out_b);
  Alcotest.(check bool) "every other OutputB sample is absent" true
    (match out_b with
    | [ a; b; c; d ] ->
      (not (V.is_absent a)) && V.is_absent b && (not (V.is_absent c)) && V.is_absent d
    | _ -> false)

(* --- Randgen ---------------------------------------------------------------- *)

let prop_randgen_valid_networks =
  qprop "random networks validate and stay in the scheduling subclass"
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let* n_periodic = int_range 1 10 in
      let* n_sporadic = int_range 0 5 in
      let* channel_density = float_bound_inclusive 1.0 in
      return (seed, n_periodic, n_sporadic, channel_density))
    (fun (seed, n_periodic, n_sporadic, channel_density) ->
      let params =
        { Fppn_apps.Randgen.default_params with
          seed; n_periodic; n_sporadic; channel_density }
      in
      let net = Fppn_apps.Randgen.network params in
      Network.n_processes net = n_periodic + n_sporadic
      && (match Network.user_map net with Ok _ -> true | Error _ -> false))

let prop_randgen_deterministic =
  qprop "randgen is deterministic in its seed" ~count:20
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let params = { Fppn_apps.Randgen.default_params with seed } in
      let a = Fppn_apps.Randgen.network params
      and b = Fppn_apps.Randgen.network params in
      Network.to_dot a = Network.to_dot b)

let () =
  Alcotest.run "apps"
    [
      ( "fft",
        [
          Alcotest.test_case "process count" `Quick test_fft_process_count;
          Alcotest.test_case "impulse" `Quick test_fft_impulse;
          Alcotest.test_case "reference DFT" `Quick test_fft_matches_reference_dft;
          Alcotest.test_case "streaming frames" `Quick test_fft_streaming_successive_frames;
          Alcotest.test_case "overhead variant" `Quick test_fft_overhead_variant;
          prop_fft_random_signals;
        ] );
      ( "fms",
        [
          Alcotest.test_case "structure" `Quick test_fms_structure;
          Alcotest.test_case "task-graph counts" `Quick test_fms_task_graph_counts;
          Alcotest.test_case "load" `Quick test_fms_load;
          Alcotest.test_case "server periods" `Quick test_fms_sporadic_deadline_invariant;
          Alcotest.test_case "random traces" `Quick test_fms_random_traces_valid;
          Alcotest.test_case "rm priorities" `Quick test_fms_rm_priorities;
          Alcotest.test_case "original 40 s scale" `Slow test_fms_original_scale;
        ] );
      ("fig1", [ Alcotest.test_case "dataflow" `Quick test_fig1_dataflow ]);
      ( "randgen",
        [ prop_randgen_valid_networks; prop_randgen_deterministic ] );
    ]

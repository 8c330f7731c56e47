module Rat = Rt_util.Rat
module V = Fppn.Value
module Event = Fppn.Event
module Process = Fppn.Process
module Network = Fppn.Network

let ms = Rat.of_int

let sporadic_processes =
  [
    "AnemoConfig";
    "GPSConfig";
    "IRSConfig";
    "DopplerConfig";
    "BCPConfig";
    "MagnDeclinConfig";
    "PerformanceConfig";
  ]

(* --- process bodies ------------------------------------------------- *)

(* A configuration process copies the pilot's command (external input)
   into its user's configuration blackboard; without an external feed it
   synthesizes a deterministic command. *)
let config_body ~input ~channel ~scale (ctx : Process.job_ctx) =
  let command =
    match ctx.Process.read input with
    | V.Absent -> V.Float (1.0 +. (scale *. float_of_int ctx.Process.job_index))
    | v -> v
  in
  ctx.Process.write channel command

(* SensorInput: acquire the four navigation sensors, apply the current
   calibration configs, publish the calibrated readings. *)
let sensor_input_body (ctx : Process.job_ctx) =
  let k = float_of_int ctx.Process.job_index in
  let cfg name =
    match ctx.Process.read name with V.Absent -> 1.0 | v -> V.to_float v
  in
  let raw =
    match ctx.Process.read "sensor_bus" with
    | V.Absent -> 40.0 +. (0.25 *. sin k)
    | v -> V.to_float v
  in
  ctx.Process.write "AnemoData" (V.Float (raw *. cfg "AnemoCfg"));
  ctx.Process.write "GPSData" (V.Float ((raw +. 0.01) *. cfg "GpsCfg"));
  ctx.Process.write "IRSData" (V.Float ((raw +. 0.02) *. cfg "IrsCfg"));
  ctx.Process.write "DopplerData" (V.Float ((raw -. 0.01) *. cfg "DopplerCfg"))

(* HighFreqBCP: fuse the four sensor readings into the best computed
   position, weighting per the BCP configuration. *)
let high_freq_bcp_body (ctx : Process.job_ctx) =
  let read name =
    match ctx.Process.read name with V.Absent -> 0.0 | v -> V.to_float v
  in
  let w =
    match ctx.Process.read "BcpCfg" with V.Absent -> 0.25 | v -> V.to_float v
  in
  let anemo = read "AnemoData"
  and gps = read "GPSData"
  and irs = read "IRSData"
  and doppler = read "DopplerData" in
  let bcp =
    (w *. gps) +. ((1.0 -. w) /. 3.0 *. (anemo +. irs +. doppler))
  in
  ctx.Process.write "BCPData" (V.Float bcp);
  ctx.Process.write "bcp_out" (V.Float bcp)

(* MagnDeclin: update the magnetic declination table.  In the reduced
   configuration the main body runs once per [stride] invocations, as in
   the paper's hyperperiod workaround. *)
let magn_declin_body ~stride (ctx : Process.job_ctx) =
  if (ctx.Process.job_index - 1) mod stride = 0 then begin
    let cfg =
      match ctx.Process.read "DeclinCfg" with
      | V.Absent -> 1.0
      | v -> V.to_float v
    in
    let table_index = 1 + ((ctx.Process.job_index - 1) / stride) in
    let declination = cfg *. 0.1 *. sin (float_of_int table_index) in
    ctx.Process.write "DeclinData" (V.Float declination)
  end

(* LowFreqBCP: long-term position consolidation with declination
   correction, feeding the performance predictor. *)
let low_freq_bcp_body (ctx : Process.job_ctx) =
  let bcp =
    match ctx.Process.read "BCPData" with V.Absent -> 0.0 | v -> V.to_float v
  in
  let declin =
    match ctx.Process.read "DeclinData" with
    | V.Absent -> 0.0
    | v -> V.to_float v
  in
  let consolidated = bcp +. declin in
  ctx.Process.write "PerformanceData" (V.Float consolidated);
  ctx.Process.write "lowfreq_out" (V.Float consolidated)

(* Performance: predict fuel usage from the consolidated position. *)
let performance_body (ctx : Process.job_ctx) =
  let pos =
    match ctx.Process.read "PerformanceData" with
    | V.Absent -> 0.0
    | v -> V.to_float v
  in
  let cfg =
    match ctx.Process.read "PerfCfg" with V.Absent -> 1.0 | v -> V.to_float v
  in
  let fuel = cfg *. (100.0 -. (0.35 *. pos)) in
  ctx.Process.write "perf_out" (V.Float fuel)

(* --- network -------------------------------------------------------- *)

let build ~magn_declin_period ~stride name =
  let b = Network.Builder.create name in
  let periodic name period body locals =
    Network.Builder.add_process b
      (Process.make ~locals ~name
         ~event:(Event.periodic ~period:(ms period) ~deadline:(ms period) ())
         (Process.Native body))
  in
  (* sporadic deadlines are 2·T_p so that d_p > T_u(p) holds and the
     server keeps the plain user period (no footnote-3 fraction) *)
  let sporadic name ~burst ~min_period body =
    Network.Builder.add_process b
      (Process.make ~name
         ~event:
           (Event.sporadic ~burst ~min_period:(ms min_period)
              ~deadline:(ms (2 * min_period))
              ())
         (Process.Native body))
  in
  periodic "SensorInput" 200 sensor_input_body [];
  periodic "HighFreqBCP" 200 high_freq_bcp_body [];
  periodic "LowFreqBCP" 5000 low_freq_bcp_body [];
  periodic "MagnDeclin" magn_declin_period (magn_declin_body ~stride) [];
  periodic "Performance" 1000 performance_body [];
  sporadic "AnemoConfig" ~burst:2 ~min_period:200
    (config_body ~input:"anemo_cmd" ~channel:"AnemoCfg" ~scale:0.01);
  sporadic "GPSConfig" ~burst:2 ~min_period:200
    (config_body ~input:"gps_cmd" ~channel:"GpsCfg" ~scale:0.02);
  sporadic "IRSConfig" ~burst:2 ~min_period:200
    (config_body ~input:"irs_cmd" ~channel:"IrsCfg" ~scale:0.03);
  sporadic "DopplerConfig" ~burst:2 ~min_period:200
    (config_body ~input:"doppler_cmd" ~channel:"DopplerCfg" ~scale:0.04);
  sporadic "BCPConfig" ~burst:2 ~min_period:200
    (config_body ~input:"bcp_cmd" ~channel:"BcpCfg" ~scale:0.005);
  sporadic "MagnDeclinConfig" ~burst:5 ~min_period:1600
    (config_body ~input:"declin_cmd" ~channel:"DeclinCfg" ~scale:0.05);
  sporadic "PerformanceConfig" ~burst:5 ~min_period:1000
    (config_body ~input:"perf_cmd" ~channel:"PerfCfg" ~scale:0.06);
  let bb = Fppn.Channel.Blackboard in
  let chan ~writer ~reader name =
    Network.Builder.add_channel b ~kind:bb ~writer ~reader name
  in
  (* sensor fusion path (the named channels of Fig. 7) *)
  chan ~writer:"SensorInput" ~reader:"HighFreqBCP" "AnemoData";
  chan ~writer:"SensorInput" ~reader:"HighFreqBCP" "GPSData";
  chan ~writer:"SensorInput" ~reader:"HighFreqBCP" "IRSData";
  chan ~writer:"SensorInput" ~reader:"HighFreqBCP" "DopplerData";
  chan ~writer:"HighFreqBCP" ~reader:"LowFreqBCP" "BCPData";
  chan ~writer:"MagnDeclin" ~reader:"LowFreqBCP" "DeclinData";
  chan ~writer:"LowFreqBCP" ~reader:"Performance" "PerformanceData";
  (* configuration blackboards *)
  chan ~writer:"AnemoConfig" ~reader:"SensorInput" "AnemoCfg";
  chan ~writer:"GPSConfig" ~reader:"SensorInput" "GpsCfg";
  chan ~writer:"IRSConfig" ~reader:"SensorInput" "IrsCfg";
  chan ~writer:"DopplerConfig" ~reader:"SensorInput" "DopplerCfg";
  chan ~writer:"BCPConfig" ~reader:"HighFreqBCP" "BcpCfg";
  chan ~writer:"MagnDeclinConfig" ~reader:"MagnDeclin" "DeclinCfg";
  chan ~writer:"PerformanceConfig" ~reader:"Performance" "PerfCfg";
  (* functional priorities: rate-monotonic among periodic processes
     (dataflow direction on the 200 ms tie), users above sporadics *)
  let prio hi lo = Network.Builder.add_priority b hi lo in
  (* the periodic processes are totally ordered rate-monotonically
     (dataflow direction breaks the SensorInput/HighFreqBCP tie), as in
     the original uniprocessor prototype *)
  let periodic_rm_order =
    if magn_declin_period <= 1000 then
      [ "SensorInput"; "HighFreqBCP"; "MagnDeclin"; "Performance"; "LowFreqBCP" ]
    else
      [ "SensorInput"; "HighFreqBCP"; "Performance"; "MagnDeclin"; "LowFreqBCP" ]
  in
  let rec all_pairs = function
    | [] -> ()
    | hi :: rest ->
      List.iter (fun lo -> prio hi lo) rest;
      all_pairs rest
  in
  all_pairs periodic_rm_order;
  prio "SensorInput" "AnemoConfig";
  prio "SensorInput" "GPSConfig";
  prio "SensorInput" "IRSConfig";
  prio "SensorInput" "DopplerConfig";
  prio "HighFreqBCP" "BCPConfig";
  prio "MagnDeclin" "MagnDeclinConfig";
  prio "Performance" "PerformanceConfig";
  (* external I/O *)
  Network.Builder.add_input b ~owner:"SensorInput" "sensor_bus";
  Network.Builder.add_input b ~owner:"AnemoConfig" "anemo_cmd";
  Network.Builder.add_input b ~owner:"GPSConfig" "gps_cmd";
  Network.Builder.add_input b ~owner:"IRSConfig" "irs_cmd";
  Network.Builder.add_input b ~owner:"DopplerConfig" "doppler_cmd";
  Network.Builder.add_input b ~owner:"BCPConfig" "bcp_cmd";
  Network.Builder.add_input b ~owner:"MagnDeclinConfig" "declin_cmd";
  Network.Builder.add_input b ~owner:"PerformanceConfig" "perf_cmd";
  Network.Builder.add_output b ~owner:"HighFreqBCP" "bcp_out";
  Network.Builder.add_output b ~owner:"LowFreqBCP" "lowfreq_out";
  Network.Builder.add_output b ~owner:"Performance" "perf_out";
  Network.Builder.finish_exn b

let original () = build ~magn_declin_period:1600 ~stride:1 "fms-original"
let reduced () = build ~magn_declin_period:400 ~stride:4 "fms-reduced"

(* Synthetic per-process budgets tuned so that the reduced task graph's
   load is ≈ 0.23, the value the paper reports for the profiled FMS. *)
let wcet =
  Taskgraph.Derive.wcet_of_list (ms 1)
    [
      ("SensorInput", ms 4);
      ("HighFreqBCP", ms 6);
      ("LowFreqBCP", ms 22);
      ("MagnDeclin", ms 7);
      ("Performance", ms 11);
    ]

let random_config_traces ~seed ~horizon ~density net =
  let prng = Rt_util.Prng.create seed in
  List.map
    (fun name ->
      let p = Network.find net name in
      let ev = Process.event (Network.process net p) in
      (name, Event.random_sporadic_trace ev (Rt_util.Prng.split prng) ~horizon ~density))
    sporadic_processes

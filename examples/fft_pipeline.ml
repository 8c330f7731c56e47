(* The streaming use case of Sec. V-A: an 8-point radix-2 FFT as a
   process network (Fig. 5's generator -> 3x4 butterfly grid ->
   consumer), compiled to a 2-processor static schedule and executed
   with the measured MPPA-like runtime overhead (41 ms first frame,
   20 ms steady state).

   Run with:  dune exec examples/fft_pipeline.exe *)

module Rat = Rt_util.Rat
module V = Fppn.Value
module Fft = Fppn_apps.Fft

let ms = Rat.of_int

let () =
  let p = Fft.default_params in
  let net = Fft.network p in
  Printf.printf "FFT-%d network: %d processes (T = d = %d ms, C = %s ms)\n"
    p.Fft.n
    (Fppn.Network.n_processes net)
    p.Fft.period_ms
    (Rat.to_string p.Fft.wcet);

  (* task graph: with a single rate, it maps 1:1 to the process network *)
  let d = Taskgraph.Derive.derive_exn ~wcet:(Fft.wcet_map p) net in
  let g = d.Taskgraph.Derive.graph in
  let load = (Taskgraph.Analysis.analyse g).load in
  Printf.printf "task graph: %d jobs, %d edges, load %.3f (paper: 0.93)\n"
    (Taskgraph.Graph.n_jobs g) (Taskgraph.Graph.n_edges g)
    (Rat.to_float load.Taskgraph.Analysis.value);

  (* schedule on two processors, as the paper finally mapped it *)
  let sched =
    match snd (Sched.List_scheduler.auto ~n_procs:2 g) with
    | Some a -> a.Sched.List_scheduler.schedule
    | None -> failwith "unexpected: FFT infeasible on 2 processors"
  in
  print_endline "\nstatic schedule (one 200 ms frame, M=2):";
  Rt_util.Gantt.print ~width:64 ~t_min:0.0 ~t_max:200.0
    (Sched.Static_schedule.to_gantt_rows g sched);

  (* run 8 frames with the overhead model and real signal data *)
  let frames = 8 in
  let overhead =
    { Runtime.Platform.first_frame = ms 41;
      steady_frame = ms 20;
      per_access = Rat.zero }
  in
  let feed = Fft.input_feed p ~frames in
  let config =
    { (Runtime.Engine.default_config ~frames ~n_procs:2 ()) with
      Runtime.Engine.platform = Runtime.Platform.create ~overhead ~n_procs:2 ();
      inputs = feed }
  in
  let rt = Runtime.Engine.run net d sched config in
  Format.printf "\nexecution: %a@." Runtime.Exec_trace.pp_stats
    rt.Runtime.Engine.stats;

  (* check the computed spectra against the naive DFT *)
  let spectra = List.assoc "spectrum" (Runtime.Engine.output_history rt) in
  let ok = ref 0 in
  List.iteri
    (fun i v ->
      let input =
        match feed "fft_in" (i + 1) with
        | V.List l -> Array.of_list (List.map V.to_complex l)
        | _ -> assert false
      in
      let expected = Fft.reference_dft input in
      let bins = Fft.spectrum_of_output v in
      if
        Array.for_all2
          (fun (ar, ai) (br, bi) ->
            Float.abs (ar -. br) < 1e-6 && Float.abs (ai -. bi) < 1e-6)
          bins expected
      then incr ok)
    spectra;
  Printf.printf "spectra matching the reference DFT: %d / %d\n" !ok
    (List.length spectra);

  (* show the dominant bin per frame — the test tone moves around *)
  print_endline "\nper-frame dominant frequency bin:";
  List.iteri
    (fun i v ->
      let bins = Fft.spectrum_of_output v in
      let mag (re, im) = Float.sqrt ((re *. re) +. (im *. im)) in
      let best = ref 0 in
      Array.iteri (fun k b -> if mag b > mag bins.(!best) then best := k) bins;
      Printf.printf "  frame %d: bin %d (|X| = %.2f)\n" (i + 1) !best
        (mag bins.(!best)))
    spectra

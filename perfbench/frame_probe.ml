(* The paper's Sec. V-A split of the runtime's per-frame cost (41 ms
   first frame, 20 ms steady frame on the MPPA), measured on this
   engine with the FFT application and its input feed, M = 2:

   - first_frame_us: Engine.run ~frames:1 on a freshly built schedule,
     so the run pays plan compilation, the prologue and one frame;
   - steady_frame_us: (T(N) - T(1)) / (N - 1), where T(N) is a run of N
     frames on the same fresh plan, so every per-run constant cancels.

   Building that fresh schedule — derive, List_scheduler.auto and
   certify the FFT network — is also timed: outside the service
   workload, it is the admission latency sample.

   One round measures all three back to back.  bench.ml spreads the
   rounds over the whole timed phase, between the workload's steps;
   each figure is the median over the rounds. *)

open Common

let params = Fppn_apps.Fft.default_params
let n_frames = 64

type t = {
  net : Fppn.Network.t;
  one : Engine.config;
  many : Engine.config;
  mutable admit : (int * int) list;
  mutable t1 : float list;
  mutable tn : float list;
}

let config frames =
  { (Engine.default_config ~frames ~n_procs:2 ()) with
    Engine.inputs = Fppn_apps.Fft.input_feed params ~frames:n_frames }

let create () =
  {
    net = Fppn_apps.Fft.network params;
    one = config 1;
    many = config n_frames;
    admit = [];
    t1 = [];
    tn = [];
  }

let rounds p = List.length p.t1

(* the admission samples, stamped like the workloads' *)
let admit_samples p = p.admit

let round p =
  let wcet = Fppn_apps.Fft.wcet_map params in
  let (d, s), dt =
    timed (fun () ->
        let d = Derive.derive_exn ~wcet p.net in
        match snd (List_scheduler.auto ~n_procs:2 d.Derive.graph) with
        | Some a ->
          ignore (Fppn_lint.Certificate.of_network ~wcet:(fun n -> Some (wcet n)) p.net);
          (d, a.List_scheduler.schedule)
        | None -> failwith "frame probe: FFT has no feasible 2-processor schedule")
  in
  p.admit <- sample dt :: p.admit;
  let run config = float_of_int (snd (timed (fun () -> Engine.run p.net d s config))) in
  p.t1 <- run p.one :: p.t1;
  p.tn <- run p.many :: p.tn

(* (first_frame_us, steady_frame_us) *)
let result p =
  let t1 = median p.t1 in
  (t1 /. 1e3, (median p.tn -. t1) /. float_of_int (n_frames - 1) /. 1e3)

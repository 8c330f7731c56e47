(* Shared plumbing of the layered benchmark: clocks, order statistics,
   the per-run accumulator every workload fills, layer spans around the
   library calls, and the determinism check against the zero-delay
   semantics. *)

module Rat = Rt_util.Rat
module Trace = Fppn_obs.Trace
module Derive = Taskgraph.Derive
module Graph = Taskgraph.Graph
module List_scheduler = Sched.List_scheduler
module Static_schedule = Sched.Static_schedule
module Engine = Runtime.Engine
module Exec_trace = Runtime.Exec_trace

(* Durations are read on the calibrated clock (calib.ml): real time
   until the untraced run starts calibrating. *)
let now_ns = Calib.now_ns

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* A span around one call into a layer's public function.  Outside a
   traced run this is the recorder's single disabled-flag check. *)
let span = Trace.with_span

(* ---- order statistics ------------------------------------------------ *)

let sorted xs = List.sort Float.compare xs

(* nearest-rank quantile: the smallest sample with at least [q] of the
   samples at or below it *)
let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let n = List.length s in
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    List.nth s (max 0 (min (n - 1) k))

let median xs = quantile 0.5 xs

(* A latency sample stamped with the real time it completed. *)
let sample ns = (Calib.real_ns (), ns)

(* The host runs in spells of a few seconds at different speeds, so a
   percentile of samples pooled over a run moves with the share of slow
   spells the run happened to catch.  [blocked q samples] cuts the
   time-ordered samples into up to ten consecutive blocks of at least
   twenty, takes the [q]-quantile within each block, and reports the
   median of those; with fewer than three blocks it falls back to the
   pooled quantile. *)
let blocked q samples =
  let xs =
    List.map (fun (_, ns) -> float_of_int ns)
      (List.sort (fun (a, _) (b, _) -> compare a b) samples)
  in
  let n = List.length xs in
  let k = min 10 (n / 20) in
  if k < 3 then quantile q xs
  else
    let per = n / k in
    median
      (List.init k (fun b ->
           quantile q (List.filteri (fun i _ -> i / per = b || (b = k - 1 && i / per >= k)) xs)))

(* ---- per-run accumulator --------------------------------------------- *)

type acc = {
  mutable jobs : int;  (** jobs executed by timed engine runs *)
  mutable exec_ns : int;  (** wall time inside those runs *)
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : string list;  (** correctness failures *)
  (* latency samples, each stamped with the time it was taken *)
  mutable setup_ns : (int * int) list;  (** one per set-up *)
  mutable plan_ns : (int * int) list;  (** one per planning pass *)
  mutable admit_ns : (int * int) list;
      (** one per Service.register call; the other workloads take the
          frame probe's *)
  mutable step_ns : (int * int) list;  (** one per closed-loop iteration *)
  mutable epoch_ns : (int * int) list;  (** service epochs, if any *)
  (* exact per-layer counts, read by the traced run *)
  mutable derived_jobs : int;
  mutable raw_edges : int;
  mutable edges : int;
  mutable sharded_jobs : int;
  mutable mode_switches : int;
  mutable dropped_lo : int;
  mutable events_drained : int;
  mutable events_thinned : int;
  mutable backpressure : int;
  mutable submitted : int;
}

let new_acc () =
  {
    jobs = 0;
    exec_ns = 0;
    attempted = 0;
    failed = 0;
    mismatches = [];
    setup_ns = [];
    plan_ns = [];
    admit_ns = [];
    step_ns = [];
    epoch_ns = [];
    derived_jobs = 0;
    raw_edges = 0;
    edges = 0;
    sharded_jobs = 0;
    mode_switches = 0;
    dropped_lo = 0;
    events_drained = 0;
    events_thinned = 0;
    backpressure = 0;
    submitted = 0;
  }

let mismatch acc msg = acc.mismatches <- msg :: acc.mismatches

(* ---- planning -------------------------------------------------------- *)

let derive acc ~wcet net =
  let d = span "taskgraph.derive" (fun () -> Derive.derive_exn ~wcet net) in
  acc.derived_jobs <- acc.derived_jobs + Graph.n_jobs d.Derive.graph;
  acc.raw_edges <- acc.raw_edges + d.Derive.raw_edges;
  acc.edges <- acc.edges + Graph.n_edges d.Derive.graph;
  d

(* The heuristic portfolio; [None] when no heuristic meets every
   deadline. *)
let auto ~n_procs g =
  match snd (span "sched.auto" (fun () -> List_scheduler.auto ~n_procs g)) with
  | Some a -> Some a.List_scheduler.schedule
  | None -> None

let certify ~wcet net =
  span "lint.certify" (fun () ->
      Fppn_lint.Certificate.of_network ~wcet:(fun n -> Some (wcet n)) net)

let makespan_ms d s = Rat.to_float (Static_schedule.makespan d.Derive.graph s)

(* Derives, schedules and certifies one application of a set-up, which
   must be feasible. *)
let plan_app acc ~label ~procs ~wcet net =
  fst
    (Calib.bracket (fun () ->
         let d = derive acc ~wcet net in
         let s =
           match auto ~n_procs:procs d.Derive.graph with
           | Some s -> s
           | None -> failwith (label ^ ": no feasible schedule")
         in
         ignore (certify ~wcet net);
         (d, s)))

(* ---- engine runs ----------------------------------------------------- *)

(* One timed engine run, counted into the throughput figures. *)
let exec acc run =
  let r, dt = timed run in
  acc.jobs <- acc.jobs + r.Engine.stats.Exec_trace.executed;
  acc.exec_ns <- acc.exec_ns + dt;
  acc.attempted <- acc.attempted + 1;
  if r.Engine.stats.Exec_trace.misses > 0 then acc.failed <- acc.failed + 1;
  r

(* Drop the stamps the engine leaves to the window after its horizon,
   so the engine and the zero-delay reference see the same events. *)
let handled_traces net d ~frames traces =
  let _, unhandled = Engine.sporadic_assignment net d ~frames traces in
  List.map
    (fun (n, stamps) ->
      (n, List.filter (fun s -> not (List.mem (n, s) unhandled)) stamps))
    traces

let equal_sig a b =
  List.equal
    (fun (n1, h1) (n2, h2) ->
      String.equal n1 n2 && List.equal Fppn.Value.equal h1 h2)
    a b

(* The zero-delay signature of the invocations [config] describes. *)
let reference net d (config : Engine.config) =
  let horizon = Rat.mul d.Derive.hyperperiod (Rat.of_int config.Engine.frames) in
  Fppn.Semantics.signature
    (Fppn.Semantics.run ~inputs:config.Engine.inputs net
       (Fppn.Semantics.invocations ~sporadic:config.Engine.sporadic ~horizon net))

(* Compares engine results against one reference signature; a mismatch
   is a correctness failure and a failed run. *)
let check_results acc ~label reference results =
  List.iter
    (fun r ->
      if not (equal_sig reference (Engine.signature r)) then begin
        mismatch acc (label ^ ": signature differs from the zero-delay semantics");
        acc.failed <- acc.failed + 1
      end)
    results

(* An engine invocation the loop repeats, through Engine.run or, with
   [shards > 1], Engine.run_sharded.  Its first and last results are
   kept for the check against the zero-delay semantics. *)
type run = {
  label : string;
  net : Fppn.Network.t;
  derive : Derive.t;
  schedule : Static_schedule.t;
  config : Engine.config;
  shards : int;
  mutable first : Engine.result option;
  mutable last : Engine.result option;
}

let make_run ?(shards = 1) ~label net (d, s) config =
  { label; net; derive = d; schedule = s; config; shards; first = None; last = None }

let exec_run acc r =
  let res =
    exec acc (fun () ->
        if r.shards > 1 then
          Engine.run_sharded ~shards:r.shards r.net r.derive r.schedule r.config
        else Engine.run r.net r.derive r.schedule r.config)
  in
  if r.shards > 1 then
    acc.sharded_jobs <- acc.sharded_jobs + res.Engine.stats.Exec_trace.executed;
  if r.first = None then r.first <- Some res else r.last <- Some res

let check_run acc r =
  check_results acc ~label:r.label
    (reference r.net r.derive r.config)
    (List.filter_map Fun.id [ r.first; r.last ])

(* Differential tests for the compiled tick-time engine core.

   [Engine.run] compiles the simulation onto an integer tick grid when
   it can; [Engine.run_reference] is the exact rational interpreter the
   seed shipped with.  The two must agree bit-for-bit: same trace
   records (rationals reconstructed from ticks are structurally equal)
   and same channel/output histories, over random workloads covering
   sporadic servers, execution-time jitter, frame overheads and
   multiple processors.

   Beyond the random differential, targeted tests pin the replay
   machinery's edges: sporadic stamps landing mid-frame must disable
   hyperperiod replay, constant vs. variable durations must flip it on
   and off, >64-process networks must exercise the multi-word hot set,
   pooled scratch reuse across runs must stay invisible, and overload,
   an order-infeasible schedule and a raising body must end as in the
   reference. *)

module Rat = Rt_util.Rat
module Timebase = Rt_util.Timebase
module Engine = Runtime.Engine
module Exec_time = Runtime.Exec_time
module Platform = Runtime.Platform
module Derive = Taskgraph.Derive
module List_scheduler = Sched.List_scheduler
module Randgen = Fppn_apps.Randgen
module Metrics = Fppn_obs.Metrics

let qprop name ?(count = 100) ?print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ?print gen f)

let ms n = Rat.of_int n

(* --- differential: tick engine == rational reference ----------------- *)

type case = {
  seed : int;
  n_periodic : int;
  n_sporadic : int;
  n_procs : int;
  frames : int;
  exec_kind : int;  (* 0 constant, 1 uniform, 2 scaled *)
  overhead_kind : int;  (* 0 none, 1 mppa_like, 2 small fractional *)
}

let case_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 99999 in
    let* n_periodic = int_range 1 6 in
    let* n_sporadic = int_range 0 2 in
    let* n_procs = int_range 1 4 in
    let* frames = int_range 1 6 in
    let* exec_kind = int_range 0 2 in
    let+ overhead_kind = int_range 0 2 in
    { seed; n_periodic; n_sporadic; n_procs; frames; exec_kind; overhead_kind })

let case_print c =
  Printf.sprintf
    "{seed=%d; periodic=%d; sporadic=%d; procs=%d; frames=%d; exec=%d; \
     overhead=%d}"
    c.seed c.n_periodic c.n_sporadic c.n_procs c.frames c.exec_kind
    c.overhead_kind

(* fresh per run: [Exec_time.uniform] carries PRNG state, and sharing
   one value across both engines would entangle their draw sequences *)
let exec_of c =
  match c.exec_kind with
  | 0 -> Exec_time.constant
  | 1 -> Exec_time.uniform ~seed:(c.seed + 1) ~min_fraction:0.25
  | _ -> Exec_time.scaled 0.5

(* a first frame dearer than the steady ones, so frame 1 is the replay
   template *)
let overhead_of c =
  match c.overhead_kind with
  | 0 -> Platform.no_overhead
  | 1 -> Platform.mppa_like
  | _ ->
    {
      Platform.first_frame = Rat.make 7 4;
      steady_frame = Rat.make 1 3;
      per_access = Rat.zero;
    }

let wcet_scale = Rat.make 1 25

let setup_of c =
  let net =
    Randgen.network
      {
        Randgen.default_params with
        seed = c.seed;
        n_periodic = c.n_periodic;
        n_sporadic = c.n_sporadic;
      }
  in
  let wcet = Randgen.wcet ~scale:wcet_scale (Derive.const_wcet Rat.one) net in
  match Derive.derive ~wcet net with
  | Error _ -> None
  | Ok d -> (
    match snd (List_scheduler.auto ~n_procs:c.n_procs d.Derive.graph) with
    | None -> None
    | Some a ->
      let sched = a.List_scheduler.schedule in
      let horizon = Rat.mul d.Derive.hyperperiod (Rat.of_int c.frames) in
      let sporadic =
        Randgen.random_traces ~seed:(c.seed + 7) ~horizon ~density:0.5 net
      in
      let config () =
        {
          (Engine.default_config ~frames:c.frames ~n_procs:c.n_procs ()) with
          Engine.platform =
            Platform.create ~overhead:(overhead_of c) ~n_procs:c.n_procs ();
          exec = exec_of c;
          sporadic;
        }
      in
      Some (net, d, sched, config))

let run_both c =
  match setup_of c with
  | None -> None
  | Some (net, d, sched, config) ->
    let tick = Engine.run net d sched (config ()) in
    let reference = Engine.run_reference net d sched (config ()) in
    Some (tick, reference)

let identical tick reference =
  List.equal
    (fun (a : Runtime.Exec_trace.record) b -> a = b)
    (Engine.trace tick) (Engine.trace reference)
  && Engine.signature tick = Engine.signature reference
  && tick.Engine.stats = reference.Engine.stats
  && tick.Engine.unhandled_events = reference.Engine.unhandled_events

let prop_differential =
  qprop "tick engine bit-identical to rational reference" ~count:120
    ~print:case_print case_gen
    (fun c ->
      match run_both c with
      | None -> true (* infeasible draw: nothing to compare *)
      | Some (tick, reference) -> identical tick reference)

(* The ISSUE-level acceptance bar, stated on its own: signatures (the
   externally visible output histories) agree on 200 random instances. *)
let prop_signature =
  qprop "signature equality on 200 random instances" ~count:200
    ~print:case_print case_gen
    (fun c ->
      match run_both c with
      | None -> true
      | Some (tick, reference) ->
        Engine.signature tick = Engine.signature reference)

(* [Engine.run_sharded] is an alias of [Engine.run] that the benchmark
   harness still calls; whatever shard count it is given, its output
   histories must be the rational reference's. *)
let prop_sharded_vs_reference =
  qprop "sharded signature equals rational reference" ~count:60
    ~print:case_print case_gen
    (fun c ->
      match setup_of c with
      | None -> true
      | Some (net, d, sched, config) ->
        let shards = 1 + (c.seed mod 4) in
        let sharded = Engine.run_sharded ~shards net d sched (config ()) in
        let reference = Engine.run_reference net d sched (config ()) in
        Engine.signature sharded = Engine.signature reference)

(* --- targeted replay / pooling edges --------------------------------- *)

(* Runs [f] with metrics collection on and returns its result together
   with the final value of counter [name]. *)
let with_counter name f =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Metrics.reset ();
  let r = f () in
  let n = Metrics.counter_value (Metrics.counter name) in
  Metrics.set_enabled was;
  (r, n)

let fig1_setup ~n_procs =
  let net = Fppn_apps.Fig1.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet net in
  match snd (List_scheduler.auto ~n_procs d.Derive.graph) with
  | Some a -> (net, d, a.List_scheduler.schedule)
  | None -> Alcotest.fail "fig1 unschedulable"

(* Constant durations on a stamp-free run let the engine capture one
   template frame and replay the rest; variable durations must force
   every frame through the event loop.  Both must match the reference. *)
let test_replay_engagement () =
  let net, d, sched = fig1_setup ~n_procs:2 in
  let config exec =
    { (Engine.default_config ~frames:8 ~n_procs:2 ()) with Engine.exec = exec }
  in
  let tick, replays =
    with_counter "engine.replays" (fun () ->
        Engine.run net d sched (config Exec_time.constant))
  in
  Alcotest.(check int) "constant durations replay" 1 replays;
  let reference = Engine.run_reference net d sched (config Exec_time.constant) in
  Alcotest.(check bool) "replayed run identical" true (identical tick reference);
  let variable () = Exec_time.uniform ~seed:11 ~min_fraction:0.25 in
  let tick, replays =
    with_counter "engine.replays" (fun () ->
        Engine.run net d sched (config (variable ())))
  in
  Alcotest.(check int) "variable durations never replay" 0 replays;
  let reference = Engine.run_reference net d sched (config (variable ())) in
  Alcotest.(check bool)
    "event-loop run identical" true (identical tick reference)

(* A sporadic arrival strictly inside a steady frame (CoefB at t=650,
   frame [600,800)) must disable replay entirely — the stamp changes
   that frame's job set — while the tick event loop still reproduces
   the reference bit-for-bit. *)
let test_midframe_sporadic () =
  let net, d, sched = fig1_setup ~n_procs:2 in
  let config () =
    {
      (Engine.default_config ~frames:6 ~n_procs:2 ()) with
      Engine.sporadic = [ ("CoefB", [ ms 650 ]) ];
    }
  in
  let tick, replays =
    with_counter "engine.replays" (fun () -> Engine.run net d sched (config ()))
  in
  Alcotest.(check int) "mid-frame stamp disables replay" 0 replays;
  let reference = Engine.run_reference net d sched (config ()) in
  Alcotest.(check bool)
    "sporadic run identical" true (identical tick reference)

(* With a first-frame overhead different from the steady one, frame 1
   is the replay template.  W writes its invocation instant, so the
   replayed frames must run frame 1's bodies at their own instants, one
   hyperperiod apart. *)
let test_replay_after_first_frame () =
  let module B = Fppn.Network.Builder in
  let module P = Fppn.Process in
  let event () = Fppn.Event.periodic ~period:(ms 100) ~deadline:(ms 100) () in
  let b = B.create "clock" in
  B.add_process b
    (P.make ~name:"W" ~event:(event ())
       (P.Native
          (fun ctx ->
            ctx.P.write "c" (Fppn.Value.Str (Rat.to_string ctx.P.now)))));
  B.add_process b
    (P.make ~name:"R" ~event:(event ())
       (P.Native (fun ctx -> ignore (ctx.P.read "c"))));
  B.add_channel b ~kind:Fppn.Channel.Fifo ~writer:"W" ~reader:"R" "c";
  B.add_priority b "W" "R";
  let net = B.finish_exn b in
  let d = Derive.derive_exn ~wcet:(Derive.const_wcet (ms 10)) net in
  match snd (List_scheduler.auto ~n_procs:1 d.Derive.graph) with
  | None -> Alcotest.fail "clock network unschedulable"
  | Some a ->
    let sched = a.List_scheduler.schedule in
    let config () =
      {
        (Engine.default_config ~frames:6 ~n_procs:1 ()) with
        Engine.platform =
          Runtime.Platform.create ~overhead:Runtime.Platform.mppa_like
            ~n_procs:1 ();
      }
    in
    let tick, replays =
      with_counter "engine.replays" (fun () ->
          Engine.run net d sched (config ()))
    in
    Alcotest.(check int) "frames after frame 1 replayed" 1 replays;
    let reference = Engine.run_reference net d sched (config ()) in
    Alcotest.(check bool)
      "replayed run identical" true (identical tick reference)

(* The compiled core packs ready/running processors into 63-bit hot
   words; networks past 64 processes/processors must spill into the
   second word and still agree with the reference. *)
let test_many_procs () =
  let params =
    {
      Randgen.default_params with
      seed = 4242;
      n_periodic = 70;
      n_sporadic = 0;
      channel_density = 0.03;
    }
  in
  let net = Randgen.network params in
  let wcet = Randgen.wcet ~scale:wcet_scale (Derive.const_wcet Rat.one) net in
  let d = Derive.derive_exn ~wcet net in
  match snd (List_scheduler.auto ~n_procs:70 d.Derive.graph) with
  | None -> Alcotest.fail "70-process draw unschedulable"
  | Some a ->
    let sched = a.List_scheduler.schedule in
    let config = Engine.default_config ~frames:3 ~n_procs:70 () in
    let tick = Engine.run net d sched config in
    let reference = Engine.run_reference net d sched config in
    Alcotest.(check bool)
      ">64-process run identical" true (identical tick reference)

(* Plan, state and scratch pools are reused across runs; a second run
   must be bit-identical to the first, and the first run's lazily
   materialised results must survive the second run overwriting the
   pooled arrays (snapshots must not alias the pools). *)
let test_pooled_reruns () =
  let net, d, sched = fig1_setup ~n_procs:2 in
  let config = Engine.default_config ~frames:6 ~n_procs:2 () in
  let reference = Engine.run_reference net d sched config in
  let r1 = Engine.run net d sched config in
  let r2 = Engine.run net d sched config in
  Alcotest.(check bool)
    "second pooled run identical" true (identical r2 reference);
  (* force r1's lazy trace/histories only now, after r2 reused the pools *)
  Alcotest.(check bool)
    "earlier results survive a later run" true (identical r1 reference)

(* A memo entry fixes plan, schedule and frame count, so its replay
   program is built by the first run that replays and reused by every
   later one.  On a network whose bodies allocate nothing, a rerun
   after a warm-up call then allocates as much at 4 frames as at 40:
   the steady frames allocate none. *)
let test_steady_frames_allocate_nothing () =
  let net = Fppn_apps.Alloc_probe.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Alloc_probe.wcet net in
  match snd (List_scheduler.auto ~n_procs:2 d.Derive.graph) with
  | None -> Alcotest.fail "allocation probe unschedulable"
  | Some a ->
    let sched = a.List_scheduler.schedule in
    let bytes_per_call frames =
      let config = Engine.default_config ~frames ~n_procs:2 () in
      ignore (Engine.run net d sched config);
      (* from an empty minor heap: a collection inside the window would
         inflate its count *)
      Gc.minor ();
      let k = 50 in
      let a0 = Gc.allocated_bytes () in
      for _ = 1 to k do
        ignore (Engine.run net d sched config)
      done;
      (Gc.allocated_bytes () -. a0) /. float_of_int k
    in
    let at4 = bytes_per_call 4 in
    let at40 = bytes_per_call 40 in
    Alcotest.(check (float 0.))
      "Gc.allocated_bytes per call, 4 frames vs 40" at4 at40

(* --- run memo ------------------------------------------------------------ *)

(* Interleaved keys: fig1 at 4 and 6 frames (one network, one kept
   state), with a mid-frame stamp, and with a model whose opaque
   durations leave no tick grid; automotive; and a monitored fig1 run,
   never memoized, in between.  Every key recurs each round, so rounds
   1-2 compile (a first sighting, then an admission) and rounds 3-4 are
   served by the memo.  Lazy traces and histories are forced only after
   the last run, when the memo has reused every entry's scratch and
   state. *)
let test_memo_interleaved () =
  let net, d, sched = fig1_setup ~n_procs:2 in
  let auto = Fppn_apps.Automotive.network () in
  let auto_d = Derive.derive_exn ~wcet:Fppn_apps.Automotive.wcet auto in
  let auto_sched =
    match snd (List_scheduler.auto ~n_procs:2 auto_d.Derive.graph) with
    | Some a -> a.List_scheduler.schedule
    | None -> Alcotest.fail "automotive unschedulable"
  in
  let config frames = Engine.default_config ~frames ~n_procs:2 () in
  let four = config 4 and six = config 6 in
  let stamped = { six with Engine.sporadic = [ ("CoefB", [ ms 650 ]) ] } in
  let opaque =
    {
      (config 3) with
      Engine.exec =
        Exec_time.profile (fun name -> if name = "CoefB" then raise Exit else ms 1);
    }
  in
  let monitor () =
    {
      Engine.is_hi = (fun j -> j.Taskgraph.Job.proc mod 2 = 0);
      budget_lo = (fun j -> Rat.div j.Taskgraph.Job.wcet (ms 2));
      on_switch = (fun _ _ -> ());
      on_drop = ignore;
    }
  in
  (* each key, run on [Engine.run] or on the reference *)
  let keys =
    [
      ("fig1, 4 frames", fun run -> run None net d sched four);
      ("automotive", fun run -> run None auto auto_d auto_sched four);
      ("fig1, 6 frames", fun run -> run None net d sched six);
      ("monitored fig1", fun run -> run (Some (monitor ())) net d sched six);
      ("fig1 with a stamp", fun run -> run None net d sched stamped);
      ("fig1, no tick grid", fun run -> run None net d sched opaque);
    ]
  in
  let tick monitor = Engine.run ?monitor
  and reference monitor = Engine.run_reference ?monitor in
  let rounds = 4 in
  let results, hits =
    with_counter "engine.memo_hits" (fun () ->
        List.concat
          (List.init rounds (fun _ ->
               List.map (fun (name, key) -> (name, key, key tick)) keys)))
  in
  Alcotest.(check int) "memo hits" (5 * (rounds - 2)) hits;
  List.iter
    (fun (name, key, r) ->
      Alcotest.(check bool) name true (identical r (key reference)))
    results

(* (compiles, memo hits) of [f ()] *)
let memo_counts f =
  let module Trace = Fppn_obs.Trace in
  Trace.reset ();
  Trace.set_enabled true;
  let (), hits = with_counter "engine.memo_hits" f in
  Trace.set_enabled false;
  let compiles =
    List.fold_left
      (fun acc (h : Trace.hotspot) ->
        if h.Trace.hname = "engine.compile" then h.Trace.calls else acc)
      0 (Trace.hotspots ())
  in
  Trace.reset ();
  (compiles, hits)

(* The admission rule: the last run is kept, and an entry joins the hot
   set only once its key recurs; a caller that builds a fresh schedule
   for every run never hits.  The hot set keeps the 8 most recently
   used entries. *)
let test_memo_admission () =
  let pair = Alcotest.(pair int int) in
  let k i = Engine.default_config ~frames:i ~n_procs:2 () in
  (* the runs of [keys] on a fresh fig1 schedule *)
  let on_fresh_schedule () =
    let net, d, sched = fig1_setup ~n_procs:2 in
    fun keys () ->
      List.iter (fun i -> ignore (Engine.run net d sched (k i))) keys
  in
  let run = on_fresh_schedule () in
  Alcotest.check pair "A,B,A,B,A,B: 4 compiles, 2 hits" (4, 2)
    (memo_counts (run [ 3; 5; 3; 5; 3; 5 ]));
  let run = on_fresh_schedule () in
  Alcotest.check pair "A,A: 1 compile, 1 hit" (1, 1) (memo_counts (run [ 3; 3 ]));
  let net, d, _ = fig1_setup ~n_procs:2 in
  let fresh () =
    match snd (List_scheduler.auto ~n_procs:2 d.Derive.graph) with
    | Some s -> s.List_scheduler.schedule
    | None -> Alcotest.fail "fig1 unschedulable"
  in
  Alcotest.check pair "fresh schedules: 10 compiles, no hit" (10, 0)
    (memo_counts (fun () ->
         for _ = 1 to 10 do
           ignore (Engine.run net d (fresh ()) (k 3))
         done));
  (* K1..K8 twice fills the hot set; a hit on K1 makes K2 the least
     recently used, so admitting K9 evicts K2 and keeps K1 *)
  let run = on_fresh_schedule () in
  let eight = List.init 8 succ in
  Alcotest.check pair "K1..K8 twice: 16 compiles" (16, 0)
    (memo_counts (run (eight @ eight)));
  Alcotest.check pair "K1, K9, K10, K9: 3 compiles, 1 hit" (3, 1)
    (memo_counts (run [ 1; 9; 10; 9 ]));
  Alcotest.check pair "K1 kept" (0, 1) (memo_counts (run [ 1 ]));
  Alcotest.check pair "K2 evicted" (1, 0) (memo_counts (run [ 2 ]));
  (* a key that recurs only after 8 other misses is not admitted *)
  let run = on_fresh_schedule () in
  Alcotest.check pair "K1..K9: 9 compiles" (9, 0)
    (memo_counts (run (List.init 9 succ)));
  Alcotest.check pair "K1, K10, K1: 3 compiles" (3, 0)
    (memo_counts (run [ 1; 10; 1 ]))

(* One network with automaton processes, run with a per-access cost of
   0, then 1/50, then 0 again.  The memo gives the three entries one
   network state, whose access-counting job contexts are built on the
   first priced run and then set aside again; every run, each on the
   tick core, must still equal the reference. *)
let test_access_counting_toggle () =
  let net =
    Randgen.network
      { Randgen.default_params with seed = 5; n_periodic = 5; n_sporadic = 0 }
  in
  Alcotest.(check bool) "the network runs automata" true
    (Array.exists
       (fun p ->
         match p.Fppn.Process.behavior with
         | Fppn.Process.Automaton _ -> true
         | Fppn.Process.Native _ -> false)
       (Fppn.Network.processes net));
  let wcet = Randgen.wcet ~scale:wcet_scale (Derive.const_wcet Rat.one) net in
  let d = Derive.derive_exn ~wcet net in
  let sched =
    match snd (List_scheduler.auto ~n_procs:2 d.Derive.graph) with
    | Some a -> a.List_scheduler.schedule
    | None -> Alcotest.fail "random network unschedulable"
  in
  List.iter
    (fun per_access ->
      let config =
        {
          (Engine.default_config ~frames:4 ~n_procs:2 ()) with
          Engine.platform =
            Platform.create
              ~overhead:{ Platform.no_overhead with Platform.per_access }
              ~n_procs:2 ();
        }
      in
      let r, frames =
        with_counter "engine.frames" (fun () -> Engine.run net d sched config)
      in
      let label = Format.asprintf "per-access cost %a" Rat.pp per_access in
      Alcotest.(check int) (label ^ ": tick core") 4 frames;
      Alcotest.(check bool)
        label true
        (identical r (Engine.run_reference net d sched config)))
    [ Rat.zero; Rat.make 1 50; Rat.zero ]

(* [Exec_time.profile] exposes per-job durations through
   [Exec_time.durations], so the tick engine compiles it rather than
   falling back; the "engine.frames" counter is only emitted by the
   compiled core, proving which path ran. *)
let test_profile_tick () =
  let net, d, sched = fig1_setup ~n_procs:2 in
  let config =
    {
      (Engine.default_config ~frames:3 ~n_procs:2 ()) with
      Engine.exec = Exec_time.profile (fun _ -> ms 1);
    }
  in
  let r1, tick_frames =
    with_counter "engine.frames" (fun () -> Engine.run net d sched config)
  in
  Alcotest.(check int) "profile compiles onto tick path" 3 tick_frames;
  let r2 = Engine.run_reference net d sched config in
  Alcotest.(check bool) "profile run identical" true (identical r1 r2)

(* Genuine fallback: a profile that raises for some process hides its
   durations behind the exception, so [Exec_time.durations] degrades to
   [Opaque], tick compilation declines, and [Engine.run] must execute
   the exact rational interpreter — observable as no "engine.frames"
   counter.  The raising process is fig1's sporadic CoefB with no
   stamps configured: its server slots are all skipped, so the
   poisoned profile is never sampled at runtime. *)
let test_rat_fallback () =
  let net, d, sched = fig1_setup ~n_procs:2 in
  let profile () =
    Exec_time.profile (fun name -> if name = "CoefB" then raise Exit else ms 1)
  in
  let config exec =
    { (Engine.default_config ~frames:3 ~n_procs:2 ()) with Engine.exec = exec }
  in
  let r1, tick_frames =
    with_counter "engine.frames" (fun () ->
        Engine.run net d sched (config (profile ())))
  in
  Alcotest.(check int) "opaque durations: rational path ran" 0 tick_frames;
  let r2 = Engine.run_reference net d sched (config (profile ())) in
  Alcotest.(check bool) "fallback run identical" true (identical r1 r2)

(* --- runs that miss, stall or raise ------------------------------------ *)

(* [run] next to [run_reference]: both return the same result, or both
   raise the same exception *)
let check_against_reference net d sched config =
  let outcome f = try Ok (f net d sched (config ())) with e -> Error e in
  match (outcome Engine.run, outcome Engine.run_reference) with
  | Ok tick, Ok reference ->
    Alcotest.(check bool) "identical to the reference" true
      (identical tick reference);
    tick
  | Error a, Error b ->
    Alcotest.(check string)
      "same exception as the reference" (Printexc.to_string b)
      (Printexc.to_string a);
    raise a
  | Ok _, Error e ->
    Alcotest.failf "reference raised %s, run returned" (Printexc.to_string e)
  | Error e, Ok _ ->
    Alcotest.failf "run raised %s, reference returned" (Printexc.to_string e)

(* jobs three times their WCET overrun past the frame boundary, with
   and without a first-frame overhead *)
let test_overload () =
  let net, d, sched = fig1_setup ~n_procs:2 in
  List.iter
    (fun overhead ->
      let config () =
        {
          (Engine.default_config ~frames:4 ~n_procs:2 ()) with
          Engine.platform = Platform.create ~overhead ~n_procs:2 ();
          exec = Exec_time.scaled 3.0;
        }
      in
      let r = check_against_reference net d sched config in
      Alcotest.(check int) "misses" 30 r.Engine.stats.Runtime.Exec_trace.misses)
    [ Platform.no_overhead; Platform.mppa_like ]

(* every job on processor 0, deepest first: each successor starts
   before its predecessors on one processor, so the first job waits
   forever and nothing runs *)
let test_order_infeasible () =
  let net, d, _ = fig1_setup ~n_procs:2 in
  let g = d.Derive.graph in
  let n = Taskgraph.Graph.n_jobs g in
  let depth = Array.make n (-1) in
  let rec depth_of j =
    if depth.(j) < 0 then
      depth.(j) <-
        List.fold_left
          (fun acc q -> max acc (1 + depth_of q))
          0 (Taskgraph.Graph.preds g j);
    depth.(j)
  in
  let deepest = List.fold_left max 0 (List.init n depth_of) in
  let sched =
    Sched.Static_schedule.make ~n_procs:2
      (Array.init n (fun j ->
           { Sched.Static_schedule.proc = 0; start = ms (deepest - depth.(j)) }))
  in
  let r =
    check_against_reference net d sched (fun () ->
        Engine.default_config ~frames:4 ~n_procs:2 ())
  in
  Alcotest.(check int)
    "nothing executed" 0 r.Engine.stats.Runtime.Exec_trace.executed

(* W and X feed R, whose third job raises *)
let raising_net () =
  let module B = Fppn.Network.Builder in
  let module P = Fppn.Process in
  let event () = Fppn.Event.periodic ~period:(ms 100) ~deadline:(ms 100) () in
  let writer name chan =
    P.make ~name ~event:(event ())
      (P.Native (fun ctx -> ctx.P.write chan (Fppn.Value.Int ctx.P.job_index)))
  in
  let b = B.create "raising" in
  B.add_process b (writer "W" "c");
  B.add_process b (writer "X" "e");
  B.add_process b
    (P.make ~name:"R" ~event:(event ())
       (P.Native
          (fun ctx ->
            if ctx.P.job_index = 3 then failwith "R: third job";
            ignore (ctx.P.read "c");
            ignore (ctx.P.read "e"))));
  B.add_channel b ~kind:Fppn.Channel.Fifo ~writer:"W" ~reader:"R" "c";
  B.add_channel b ~kind:Fppn.Channel.Fifo ~writer:"X" ~reader:"R" "e";
  B.add_priority b "W" "R";
  B.add_priority b "X" "R";
  B.finish_exn b

let test_raising_body () =
  let net = raising_net () in
  let d = Derive.derive_exn ~wcet:(Derive.const_wcet (ms 10)) net in
  match snd (List_scheduler.auto ~n_procs:2 d.Derive.graph) with
  | None -> Alcotest.fail "raising network unschedulable"
  | Some a ->
    let sched = a.List_scheduler.schedule in
    let config () = Engine.default_config ~frames:4 ~n_procs:2 () in
    Alcotest.check_raises "the body's exception" (Failure "R: third job")
      (fun () -> ignore (check_against_reference net d sched config))

(* --- Timebase -------------------------------------------------------- *)

let test_timebase_basic () =
  match Timebase.create [ Rat.make 1 3; Rat.make 1 4; Rat.of_int 7 ] with
  | None -> Alcotest.fail "small LCM must be representable"
  | Some tb ->
    Alcotest.(check int) "den = lcm(3,4)" 12 (Timebase.den tb);
    Alcotest.(check int) "ticks 1/3" 4 (Timebase.ticks tb (Rat.make 1 3));
    Alcotest.(check int) "ticks 7" 84 (Timebase.ticks tb (Rat.of_int 7));
    Alcotest.(check bool)
      "roundtrip is structural identity" true
      (Timebase.of_ticks tb 4 = Rat.make 1 3);
    Alcotest.(check bool)
      "1/5 not on the grid" true
      (Timebase.ticks_opt tb (Rat.make 1 5) = None);
    Alcotest.check_raises "ticks raises Inexact off-grid" Timebase.Inexact
      (fun () -> ignore (Timebase.ticks tb (Rat.make 1 5)))

let test_timebase_overflow () =
  (* pairwise-coprime denominators near 2^31: the LCM overflows the
     magnitude cap, and [create] must return None rather than crash *)
  let big = [ 2147483647; 2147483629; 2147483587; 2147483579 ] in
  let times = List.map (fun d -> Rat.make 1 d) big in
  Alcotest.(check bool) "LCM overflow yields None" true
    (Timebase.create times = None);
  (* a representable grid whose horizon does not fit must also decline *)
  match Timebase.create [ Rat.one ] with
  | None -> Alcotest.fail "unit grid must build"
  | Some _ ->
    Alcotest.(check bool)
      "oversized horizon yields None" true
      (Timebase.create ~horizon:(Rat.of_int max_int) [ Rat.one ] = None)

let prop_timebase_roundtrip =
  qprop "of_ticks inverts ticks exactly" ~count:300
    QCheck2.Gen.(
      let* num = int_range (-100000) 100000 in
      let* den = int_range 1 1000 in
      let+ extra = int_range 1 1000 in
      (num, den, extra))
    (fun (num, den, extra) ->
      let r = Rat.make num den in
      match Timebase.create [ r; Rat.make 1 extra ] with
      | None -> true
      | Some tb -> Timebase.of_ticks tb (Timebase.ticks tb r) = r)

let () =
  Alcotest.run "tick_engine"
    [
      ( "differential",
        [
          prop_differential;
          prop_signature;
          prop_sharded_vs_reference;
          Alcotest.test_case "replay engagement" `Quick test_replay_engagement;
          Alcotest.test_case "mid-frame sporadic" `Quick test_midframe_sporadic;
          Alcotest.test_case "replay after the first frame" `Quick
            test_replay_after_first_frame;
          Alcotest.test_case ">64 processes" `Quick test_many_procs;
          Alcotest.test_case "pooled reruns" `Quick test_pooled_reruns;
          Alcotest.test_case "steady frames allocate nothing" `Quick
            test_steady_frames_allocate_nothing;
          Alcotest.test_case "run memo: interleaved keys" `Quick
            test_memo_interleaved;
          Alcotest.test_case "run memo: admission" `Quick test_memo_admission;
          Alcotest.test_case "run memo: access counting on and off" `Quick
            test_access_counting_toggle;
          Alcotest.test_case "profile tick-compiles" `Quick test_profile_tick;
          Alcotest.test_case "rational fallback" `Quick test_rat_fallback;
          Alcotest.test_case "overload past the frame boundary" `Quick
            test_overload;
          Alcotest.test_case "order-infeasible schedule" `Quick
            test_order_infeasible;
          Alcotest.test_case "raising body propagates" `Quick test_raising_body;
        ] );
      ( "timebase",
        [
          Alcotest.test_case "basic" `Quick test_timebase_basic;
          Alcotest.test_case "overflow" `Quick test_timebase_overflow;
          prop_timebase_roundtrip;
        ] );
    ]

(* Differential tests for the sharded engine core.

   [Engine.run_sharded] takes its timeline from one timing pass of the
   tick core's event loop, cuts the scheduled processors into K shards
   and runs only the job bodies there, over per-edge mailboxes and
   frame barriers; whenever its preconditions fail it falls back to
   [Engine.run].  Either way the observable result must be
   bit-identical to the sequential engine — same trace records, same
   channel/output histories, same stats — over random workloads
   covering sporadic stamps, frame overheads, multi-processor schedules
   and >64-process networks.

   The pool's order-preserving work-stealing combinators and the
   partitioner's invariants are property-tested here too: both sit
   under the sharded engine and their determinism is what makes the
   differential meaningful. *)

module Rat = Rt_util.Rat
module Pool = Rt_util.Pool
module Engine = Runtime.Engine
module Partition = Runtime.Partition
module Exec_time = Runtime.Exec_time
module Platform = Runtime.Platform
module Derive = Taskgraph.Derive
module List_scheduler = Sched.List_scheduler
module Randgen = Fppn_apps.Randgen
module Metrics = Fppn_obs.Metrics

let qprop name ?(count = 100) ?print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ?print gen f)

let ms n = Rat.of_int n

(* --- differential: sharded engine == sequential engine --------------- *)

type case = {
  seed : int;
  n_periodic : int;
  n_sporadic : int;
  n_procs : int;
  frames : int;
  shards : int;
  exec_kind : int;  (* 0 constant, 1 scaled, 2 uniform (forces fallback) *)
  overhead_kind : int;  (* 0 none, 1 mppa_like, 2 small fractional *)
}

let case_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 99999 in
    let* n_periodic = int_range 1 6 in
    let* n_sporadic = int_range 0 2 in
    let* n_procs = int_range 1 4 in
    let* frames = int_range 1 6 in
    let* shards = int_range 1 4 in
    let* exec_kind = int_range 0 2 in
    let+ overhead_kind = int_range 0 2 in
    {
      seed;
      n_periodic;
      n_sporadic;
      n_procs;
      frames;
      shards;
      exec_kind;
      overhead_kind;
    })

let case_print c =
  Printf.sprintf
    "{seed=%d; periodic=%d; sporadic=%d; procs=%d; frames=%d; shards=%d; \
     exec=%d; overhead=%d}"
    c.seed c.n_periodic c.n_sporadic c.n_procs c.frames c.shards c.exec_kind
    c.overhead_kind

let wcet_scale = Rat.make 1 25

(* fresh per run: [Exec_time.uniform] carries PRNG state *)
let exec_of c =
  match c.exec_kind with
  | 0 -> Exec_time.constant
  | 1 -> Exec_time.scaled 0.5
  | _ -> Exec_time.uniform ~seed:(c.seed + 1) ~min_fraction:0.25

(* a first frame dearer than the steady ones; the fractional pair has
   no per-access cost, so sharding can still engage under it *)
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
      Some (net, d, a.List_scheduler.schedule, config))

let run_both c =
  match setup_of c with
  | None -> None
  | Some (net, d, sched, config) ->
    let sharded = Engine.run_sharded ~shards:c.shards net d sched (config ()) in
    let sequential = Engine.run net d sched (config ()) in
    Some (sharded, sequential)

let identical a b =
  List.equal
    (fun (x : Runtime.Exec_trace.record) y -> x = y)
    (Engine.trace a) (Engine.trace b)
  && Engine.signature a = Engine.signature b
  && a.Engine.stats = b.Engine.stats
  && a.Engine.unhandled_events = b.Engine.unhandled_events

let prop_differential =
  qprop "sharded bit-identical to sequential engine" ~count:120
    ~print:case_print case_gen
    (fun c ->
      match run_both c with
      | None -> true (* infeasible draw: nothing to compare *)
      | Some (sharded, sequential) -> identical sharded sequential)

(* The ISSUE-level acceptance bar, stated on its own: signatures agree
   on 200 random instances, sporadic stamps included. *)
let prop_signature =
  qprop "signature equality on 200 random instances" ~count:200
    ~print:case_print case_gen
    (fun c ->
      match run_both c with
      | None -> true
      | Some (sharded, sequential) ->
        Engine.signature sharded = Engine.signature sequential)

(* Sharded against the exact rational reference: composes the tick
   differential (test_tick) with the sharding one, so a bug cancelling
   out between the two compiled cores would still be caught. *)
let prop_vs_reference =
  qprop "sharded signature equals rational reference" ~count:60
    ~print:case_print case_gen
    (fun c ->
      match setup_of c with
      | None -> true
      | Some (net, d, sched, config) ->
        let sharded =
          Engine.run_sharded ~shards:c.shards net d sched (config ())
        in
        let reference = Engine.run_reference net d sched (config ()) in
        Engine.signature sharded = Engine.signature reference)

(* --- targeted sharding edges ----------------------------------------- *)

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

(* shards=1 must delegate to [Engine.run] outright — bit-identity is by
   construction, and no sharded run may be counted *)
let test_one_shard_delegates () =
  let net, d, sched = fig1_setup ~n_procs:2 in
  let config = Engine.default_config ~frames:6 ~n_procs:2 () in
  let r1, sharded_runs =
    with_counter "engine.sharded_runs" (fun () ->
        Engine.run_sharded ~shards:1 net d sched config)
  in
  Alcotest.(check int) "no sharded run counted" 0 sharded_runs;
  let r2 = Engine.run net d sched config in
  Alcotest.(check bool) "shards=1 identical to run" true (identical r1 r2)

(* fig1 on two processors with constant durations satisfies every
   precondition: the sharded path itself (not the fallback) must run
   and agree with the sequential engine, sporadic stamps included *)
let test_sharded_path_engages () =
  let net, d, sched = fig1_setup ~n_procs:2 in
  let config =
    {
      (Engine.default_config ~frames:6 ~n_procs:2 ()) with
      Engine.sporadic = [ ("CoefB", [ ms 650 ]) ];
    }
  in
  let r1, sharded_runs =
    with_counter "engine.sharded_runs" (fun () ->
        Engine.run_sharded ~shards:2 net d sched config)
  in
  Alcotest.(check int) "sharded path ran" 1 sharded_runs;
  let r2 = Engine.run net d sched config in
  Alcotest.(check bool) "sharded run identical" true (identical r1 r2)

(* sampled durations break the body-independent timing recurrence, so
   the run must fall back — and still match, draw for draw *)
let test_sampled_durations_fall_back () =
  let net, d, sched = fig1_setup ~n_procs:2 in
  let config exec =
    { (Engine.default_config ~frames:4 ~n_procs:2 ()) with Engine.exec = exec }
  in
  let variable () = Exec_time.uniform ~seed:11 ~min_fraction:0.25 in
  let r1, fallbacks =
    with_counter "engine.shard_fallbacks" (fun () ->
        Engine.run_sharded ~shards:2 net d sched (config (variable ())))
  in
  Alcotest.(check int) "fallback counted" 1 fallbacks;
  let r2 = Engine.run net d sched (config (variable ())) in
  Alcotest.(check bool) "fallback run identical" true (identical r1 r2)

(* >64 processes: multi-word hot sets in the sequential engine, many
   processors per shard here; 3 shards stay bit-identical *)
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
    let sharded = Engine.run_sharded ~shards:3 net d sched config in
    let sequential = Engine.run net d sched config in
    Alcotest.(check bool)
      ">64-process sharded run identical" true (identical sharded sequential)

(* --- sharded fallbacks ------------------------------------------------ *)

(* [run_sharded ~shards:2] next to [Engine.run] on a case the sharded
   path must decline: one fallback, no sharded run, and [run]'s result
   — or [run]'s exception *)
let check_declined net d sched config =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Metrics.reset ();
  let sharded =
    try Ok (Engine.run_sharded ~shards:2 net d sched (config ()))
    with e -> Error e
  in
  let count name = Metrics.counter_value (Metrics.counter name) in
  let fallbacks = count "engine.shard_fallbacks"
  and sharded_runs = count "engine.sharded_runs" in
  Metrics.set_enabled was;
  Alcotest.(check int) "fallback counted" 1 fallbacks;
  Alcotest.(check int) "no sharded run counted" 0 sharded_runs;
  let sequential =
    try Ok (Engine.run net d sched (config ())) with e -> Error e
  in
  match (sharded, sequential) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "identical to run" true (identical a b);
    a
  | Error a, Error b ->
    Alcotest.(check string)
      "same exception as run" (Printexc.to_string b) (Printexc.to_string a);
    raise a
  | Ok _, Error e ->
    Alcotest.failf "run raised %s, run_sharded returned" (Printexc.to_string e)
  | Error e, Ok _ ->
    Alcotest.failf "run_sharded raised %s, run returned"
      (Printexc.to_string e)

(* jobs three times their WCET overrun past the frame boundary, with
   and without a first-frame overhead: the body phase cannot run the
   frames apart, so the run falls back *)
let test_overload_falls_back () =
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
      let r = check_declined net d sched config in
      Alcotest.(check int) "misses" 30 r.Engine.stats.Runtime.Exec_trace.misses)
    [ Platform.no_overhead; Platform.mppa_like ]

(* every job on processor 0, deepest first: each successor starts
   before its predecessors on one processor, so the first job waits
   forever and nothing runs *)
let test_order_infeasible_falls_back () =
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
    check_declined net d sched (fun () ->
        Engine.default_config ~frames:4 ~n_procs:2 ())
  in
  Alcotest.(check int)
    "nothing executed" 0 r.Engine.stats.Runtime.Exec_trace.executed

(* W and X feed R, whose third job raises *)
let raising_net () =
  let module B = Fppn.Network.Builder in
  let module P = Fppn.Process in
  let event () =
    Fppn.Event.periodic ~period:(ms 100) ~deadline:(ms 100) ()
  in
  let writer name chan =
    P.make ~name ~event:(event ())
      (P.Native
         (fun ctx -> ctx.P.write chan (Fppn.Value.Int ctx.P.job_index)))
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

let test_raising_body_falls_back () =
  let net = raising_net () in
  let d = Derive.derive_exn ~wcet:(Derive.const_wcet (ms 10)) net in
  match snd (List_scheduler.auto ~n_procs:2 d.Derive.graph) with
  | None -> Alcotest.fail "raising network unschedulable"
  | Some a ->
    let sched = a.List_scheduler.schedule in
    (* two frames stop short of the raising job and engage the sharded
       path, so the four-frame fallback comes from the body phase *)
    let short = Engine.default_config ~frames:2 ~n_procs:2 () in
    let r1, sharded_runs =
      with_counter "engine.sharded_runs" (fun () ->
          Engine.run_sharded ~shards:2 net d sched short)
    in
    Alcotest.(check int) "sharded path ran" 1 sharded_runs;
    Alcotest.(check bool)
      "sharded run identical" true
      (identical r1 (Engine.run net d sched short));
    let config () = Engine.default_config ~frames:4 ~n_procs:2 () in
    Alcotest.check_raises "run's exception" (Failure "R: third job")
      (fun () -> ignore (check_declined net d sched config))

(* --- partitioner invariants ------------------------------------------ *)

let partition_case_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 99999 in
    let* n_periodic = int_range 1 8 in
    let* n_procs = int_range 1 5 in
    let+ shards = int_range 1 8 in
    (seed, n_periodic, n_procs, shards))

let prop_partition =
  qprop "partition covers processors, bounds cut, deterministic"
    ~count:150
    ~print:(fun (s, np, pr, k) ->
      Printf.sprintf "{seed=%d; periodic=%d; procs=%d; shards=%d}" s np pr k)
    partition_case_gen
    (fun (seed, n_periodic, n_procs, shards) ->
      let net =
        Randgen.network
          { Randgen.default_params with seed; n_periodic; n_sporadic = 0 }
      in
      let wcet =
        Randgen.wcet ~scale:wcet_scale (Derive.const_wcet Rat.one) net
      in
      match Derive.derive ~wcet net with
      | Error _ -> true
      | Ok d -> (
        match snd (List_scheduler.auto ~n_procs d.Derive.graph) with
        | None -> true
        | Some a ->
          let sched = a.List_scheduler.schedule in
          let p = Partition.make ~shards d sched in
          let k = Partition.shards p in
          k >= 1
          && k <= max 1 n_procs
          && k <= max 1 shards
          (* every processor in exactly one shard, consistently *)
          && Array.length p.Partition.shard_of_proc = n_procs
          && Array.for_all
               (fun s -> s >= 0 && s < k)
               p.Partition.shard_of_proc
          && Array.to_list p.Partition.procs_of_shard
             |> List.concat_map Array.to_list
             |> List.sort Int.compare
             = List.init n_procs Fun.id
          && Array.for_all
               (fun pr ->
                 Array.for_all
                   (fun q -> p.Partition.shard_of_proc.(q) >= 0)
                   pr)
               p.Partition.procs_of_shard
          && Partition.cut_edges p <= Partition.total_edges p
          && (k > 1 || Partition.cut_edges p = 0)
          (* pure function of its inputs *)
          && Partition.make ~shards d sched = p))

(* --- pool order preservation ----------------------------------------- *)

let pool_case_gen =
  QCheck2.Gen.(
    let* n = int_range 0 500 in
    let* jobs = int_range 1 8 in
    let+ chunk = int_range 1 7 in
    (n, jobs, chunk))

let pool_case_print (n, jobs, chunk) =
  Printf.sprintf "{n=%d; jobs=%d; chunk=%d}" n jobs chunk

(* work-stealing may run blocks on any worker in any order; results
   must still land at their input index, for any grain *)
let prop_pool_order =
  qprop "parallel_map preserves input order under stealing" ~count:60
    ~print:pool_case_print pool_case_gen
    (fun (n, jobs, chunk) ->
      let input = Array.init n (fun i -> (i * 7919) lxor 0x2a) in
      let f x = (x * x) + (x lsr 3) in
      let expected = Array.map f input in
      Pool.with_pool ~jobs (fun pool ->
          Pool.parallel_map ~chunk pool f input = expected
          && Pool.map_list ~chunk pool f (Array.to_list input)
             = Array.to_list expected))

let prop_pool_for =
  qprop "parallel_for writes every index exactly once" ~count:40
    ~print:pool_case_print pool_case_gen
    (fun (n, jobs, chunk) ->
      let hits = Array.make (max 1 n) 0 in
      Pool.with_pool ~jobs (fun pool ->
          Pool.parallel_for ~chunk pool n (fun i ->
              hits.(i) <- hits.(i) + 1));
      Array.for_all (fun h -> h = 1) (Array.sub hits 0 n) || n = 0)

let test_steal_counter_monotone () =
  let s0 = Pool.steals () in
  Pool.with_pool ~jobs:4 (fun pool ->
      for _ = 1 to 5 do
        ignore
          (Pool.parallel_map ~chunk:1 pool
             (fun x ->
               (* uneven work invites steals; the counter must only grow *)
               let acc = ref x in
               for _ = 1 to (x mod 7) * 400 do
                 acc := (!acc * 31) land 0xffffff
               done;
               !acc)
             (Array.init 200 Fun.id))
      done);
  Alcotest.(check bool) "steal counter monotone" true (Pool.steals () >= s0)

let () =
  Alcotest.run "shard_engine"
    [
      ( "differential",
        [
          prop_differential;
          prop_signature;
          prop_vs_reference;
          Alcotest.test_case "shards=1 delegates" `Quick
            test_one_shard_delegates;
          Alcotest.test_case "sharded path engages" `Quick
            test_sharded_path_engages;
          Alcotest.test_case "sampled durations fall back" `Quick
            test_sampled_durations_fall_back;
          Alcotest.test_case ">64 processes" `Quick test_many_procs;
          Alcotest.test_case "overload past the frame falls back" `Quick
            test_overload_falls_back;
          Alcotest.test_case "order-infeasible schedule falls back" `Quick
            test_order_infeasible_falls_back;
          Alcotest.test_case "raising body falls back" `Quick
            test_raising_body_falls_back;
        ] );
      ("partition", [ prop_partition ]);
      ( "pool",
        [
          prop_pool_order;
          prop_pool_for;
          Alcotest.test_case "steal counter monotone" `Quick
            test_steal_counter_monotone;
        ] );
    ]

(* The engine's entry points and its run memo.  The parts that do the
   work are private modules of this library, each readable alone:
   [Prologue] (configuration, result and monitor types, validation and
   the Fig. 2 window assignment), [Exec_rat] (the exact rational
   reference core), [Tick_setup] (tick compilation, scratch and packed
   results) and [Exec_ticks] (the tick event loop and steady-frame
   replay). *)

include Prologue
module Trace = Fppn_obs.Trace
module Metrics = Fppn_obs.Metrics

let trace r = Lazy.force r.trace
let channel_history r = Lazy.force r.channel_history
let output_history r = Lazy.force r.output_history
let overhead_segments r = Lazy.force r.overhead_segments

let handled_traces net derived ~frames traces =
  let _, unhandled = sporadic_assignment net derived ~frames traces in
  List.map
    (fun (n, stamps) ->
      (n, List.filter (fun s -> not (List.mem (n, s) unhandled)) stamps))
    traces

(* ------------------------------------------------------------------ *)
(* Run memo: per domain, so concurrent runs never share an entry.       *)
(*                                                                      *)
(* Callers re-run identical configurations (benchmark steps, fuzz       *)
(* campaigns, periodic re-simulation), often interleaved with other     *)
(* networks.  An entry owns all a rerun needs: the prologue's outcome,  *)
(* the compiled plan (or, without a tick grid, the window assignment),  *)
(* the scratch and the network state, shared by the entries of one      *)
(* network.  A hit goes straight to the timing core.  Skipping the      *)
(* prologue is safe: every input it reads is in the key, and an entry   *)
(* exists only once its prologue succeeded.  Compilation is pure for    *)
(* every compilable model ([Profile] callbacks are required to be       *)
(* pure).  The last run stays in [recent]; an entry joins the [hot] LRU *)
(* only when its (schedule, config) recurs among the last [keep]        *)
(* misses, so callers that build fresh schedules or stamps for every    *)
(* run never keep more than that one entry.                             *)
(* ------------------------------------------------------------------ *)

(* Structural-enough config equality for the memo: scalars compare by
   value, closures and rational lists by identity (callers that rebuild
   [default_config] per run share the library-level defaults, so the
   common case still hits). *)
let same_config a b =
  a == b
  || (a.frames = b.frames && a.exec == b.exec && a.inputs == b.inputs
     && a.sporadic == b.sporadic
     && (a.platform == b.platform
        || (a.platform.Platform.n_procs = b.platform.Platform.n_procs
           && a.platform.Platform.overhead == b.platform.Platform.overhead)))

type core =
  | Ticks of Tick_setup.tick_plan * Tick_setup.tick_scratch * Netstate.t
  | Rational of (int * int, Rat.t) Hashtbl.t  (* the window assignment *)

type entry = {
  e_net : Network.t;
  e_derived : Derive.t;
  e_sched : Static_schedule.t;
  e_config : config;
  e_unhandled : (string * Rat.t) list;
  e_core : core;
}

type memo = {
  mutable recent : entry option;
  mutable hot : entry list;  (* most recently used first *)
  mutable seen : (Static_schedule.t * config) list;  (* the last misses *)
}

let keep = 8

let memo_key =
  Domain.DLS.new_key (fun () -> { recent = None; hot = []; seen = [] })

let rec take k = function x :: l when k > 0 -> x :: take (k - 1) l | _ -> []

(* a kept state of [net], else a fresh one *)
let state_for memo net =
  let kept e =
    match e.e_core with
    | Ticks (_, _, st) when e.e_net == net -> Some st
    | _ -> None
  in
  match List.find_map kept (Option.to_list memo.recent @ memo.hot) with
  | Some st -> st
  | None -> Netstate.create net

(* prologue and compilation: the unhandled events and the core to run *)
let prepare ?monitor memo net derived sched config =
  let assigned, unhandled = validate_and_assign net derived sched config in
  match
    Trace.with_span "engine.compile" (fun () ->
        Tick_setup.compile ?monitor net derived sched config ~assigned)
  with
  | Some plan ->
    (* the scratch and the state are the tick core's set-up *)
    Trace.with_span "engine.exec.ticks" (fun () ->
        let n_procs = config.platform.Platform.n_procs in
        let sc = Tick_setup.make_scratch derived sched ~n_procs in
        (unhandled, Ticks (plan, sc, state_for memo net)))
  | None -> (unhandled, Rational assigned)

(* the entry that serves an unmonitored run, found or made *)
let lookup memo net derived sched config =
  let serves e =
    e.e_net == net && e.e_derived == derived && e.e_sched == sched
    && same_config e.e_config config
  in
  let found =
    match memo.recent with
    | Some e as r when serves e -> r
    | _ -> List.find_opt serves memo.hot
  in
  match found with
  | Some e ->
    if Metrics.enabled () then Metrics.incr (Metrics.counter "engine.memo_hits");
    (match memo.hot with
    | h :: _ when h == e -> ()
    | hot ->
      if List.memq e hot then memo.hot <- e :: List.filter (( != ) e) hot);
    memo.recent <- found;
    e
  | None ->
    let e_unhandled, e_core = prepare memo net derived sched config in
    let e =
      {
        e_net = net;
        e_derived = derived;
        e_sched = sched;
        e_config = config;
        e_unhandled;
        e_core;
      }
    in
    let recurs =
      List.exists (fun (s, c) -> s == sched && same_config c config) memo.seen
    in
    memo.seen <- take keep ((sched, config) :: memo.seen);
    if recurs then memo.hot <- take keep (e :: memo.hot);
    memo.recent <- Some e;
    e

(* A monitor's budgets and callbacks are fresh per call, so a monitored
   run is never memoized; it only borrows a kept state of its network. *)
let run ?monitor net derived sched config =
  Trace.with_span "engine.run" (fun () ->
      let memo = Domain.DLS.get memo_key in
      let unhandled_events, core =
        match monitor with
        | Some _ -> prepare ?monitor memo net derived sched config
        | None ->
          let e = lookup memo net derived sched config in
          (e.e_unhandled, e.e_core)
      in
      match core with
      | Ticks (plan, sc, state) ->
        Trace.with_span "engine.exec.ticks" (fun () ->
            Exec_ticks.run ?monitor derived config ~unhandled_events plan sc
              state)
      | Rational assigned ->
        Trace.with_span "engine.exec.rat" (fun () ->
            Exec_rat.run ?monitor net derived sched config ~assigned
              ~unhandled_events))

let run_reference ?monitor net derived sched config =
  Trace.with_span "engine.run_reference" (fun () ->
      let assigned, unhandled_events =
        validate_and_assign net derived sched config
      in
      Trace.with_span "engine.exec.rat" (fun () ->
          Exec_rat.run ?monitor net derived sched config ~assigned
            ~unhandled_events))

let run_sharded ?shards:_ net derived sched config = run net derived sched config

let signature r =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Lazy.force r.channel_history @ Lazy.force r.output_history)

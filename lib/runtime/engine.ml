(* The engine's entry points, its sessions and its run memo.  The parts
   that do the work are private modules of this library, each readable
   alone: [Prologue] (configuration, result and monitor types,
   validation and the Fig. 2 window assignment), [Tick_setup] (grid
   compilation and the refusal of runs no grid holds, stamp placement,
   scratch and packed results) and [Exec_ticks] (the tick event loop
   and steady-frame replay). *)

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

let signature r =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Lazy.force r.channel_history @ Lazy.force r.output_history)

(* ------------------------------------------------------------------ *)
(* Sessions: the set-up of one network, schedule and configuration,    *)
(* kept across runs that differ only in their sporadic stamps.          *)
(*                                                                      *)
(* A session owns the compiled tick grid, the scratch and the network   *)
(* state.  A run validates its stamps, assigns them to server windows   *)
(* and places them on the kept grid; a stamp off the grid recompiles it *)
(* with the stamps, keeping the scratch and the state, as neither       *)
(* depends on the grid.  The grid's times are the run's model times, so *)
(* two grids of one session give the same result.  A recompile that    *)
(* refuses the stamps keeps the old grid.                               *)
(* ------------------------------------------------------------------ *)

type ticks = {
  mutable plan : Tick_setup.tick_plan;
  scratch : Tick_setup.tick_scratch;
  state : Netstate.t;
}

(* a run's stamps, placed on the grid of a session's [ticks] *)
type placed = ticks * int array

type session = {
  s_net : Network.t;
  s_derived : Derive.t;
  s_sched : Static_schedule.t;
  s_config : config;
  s_monitor : monitor option;
  s_ticks : ticks;
  mutable s_ran : bool;  (* the last run returned: [s_ticks.state] holds it *)
}

let assigned_stamps assigned = Hashtbl.fold (fun _ s acc -> s :: acc) assigned []

let compile ?monitor net derived sched config ~stamps =
  Trace.with_span "engine.compile" (fun () ->
      Tick_setup.compile ?monitor net derived sched config ~stamps)

(* the grid of the run's model times and [stamps], with its scratch and
   the state from [state ()] *)
let make_session ?monitor ~state net derived sched config ~stamps =
  let plan = compile ?monitor net derived sched config ~stamps in
  (* the scratch and the state are the tick core's set-up *)
  let s_ticks =
    Trace.with_span "engine.exec.ticks" (fun () ->
        let n_procs = config.platform.Platform.n_procs in
        let scratch = Tick_setup.make_scratch derived sched ~n_procs in
        { plan; scratch; state = state () })
  in
  {
    s_net = net;
    s_derived = derived;
    s_sched = sched;
    s_config = config;
    s_monitor = monitor;
    s_ticks;
    s_ran = false;
  }

let session net derived sched config =
  validate_shape derived sched config;
  make_session ~state:(fun () -> Netstate.create net) net derived sched config
    ~stamps:[]

(* [assigned]'s stamps on the session's grid, recompiled with them if
   one is off it.  A grid compiled with the stamps holds them all: they
   are non-negative and at most [frames·H], whose ticks the grid's
   horizon bound covers. *)
let place s assigned : placed =
  let t = s.s_ticks in
  let n = Graph.n_jobs s.s_derived.Derive.graph in
  let frames = s.s_config.frames in
  let on plan = Tick_setup.place plan ~n ~frames assigned in
  match on t.plan with
  | stamps -> (t, stamps)
  | exception (Rt_util.Timebase.Inexact | Rat.Overflow) ->
    let plan =
      compile ?monitor:s.s_monitor s.s_net s.s_derived s.s_sched s.s_config
        ~stamps:(assigned_stamps assigned)
    in
    let stamps = on plan in
    t.plan <- plan;
    (t, stamps)

let exec s config ~unhandled_events (({ plan; scratch; state }, stamps) : placed) =
  Trace.with_span "engine.exec.ticks" (fun () ->
      Exec_ticks.run ?monitor:s.s_monitor s.s_derived config ~unhandled_events
        plan ~stamps scratch state)

let run_session s ~sporadic =
  Trace.with_span "engine.run" (fun () ->
      s.s_ran <- false;
      let config = { s.s_config with sporadic } in
      let assigned, unhandled_events =
        validate_and_assign s.s_net s.s_derived s.s_sched config
      in
      let r = exec s config ~unhandled_events (place s assigned) in
      s.s_ran <- true;
      r)

let last_signature s =
  if s.s_ran then
    let state = s.s_ticks.state in
    Some
      (List.sort
         (fun (a, _) (b, _) -> String.compare a b)
         (Netstate.channel_history state @ Netstate.output_history state))
  else None

(* ------------------------------------------------------------------ *)
(* Run memo: per domain, so concurrent runs never share an entry.       *)
(*                                                                      *)
(* Callers re-run identical configurations (benchmark steps, fuzz       *)
(* campaigns, periodic re-simulation), often interleaved with other     *)
(* networks.  An entry is a session made for its run's stamps, with     *)
(* the stamps placed on its grid and the unhandled events: all a rerun  *)
(* needs.  Entries of one network share one network state.  A hit goes  *)
(* straight to the tick core.  Skipping the prologue and placement is   *)
(* safe: every input they read is in the key, and an entry exists only  *)
(* once its prologue and compilation succeeded.  Compilation is pure    *)
(* ([Profile] callbacks are required to be pure).  The last run stays   *)
(* in [recent]; an entry joins the [hot] LRU only when its (schedule,   *)
(* config) recurs among the last [keep] misses, so callers that build   *)
(* fresh schedules or stamps for every run never keep more than that    *)
(* one entry.  A kept state holds none of a run's channel values: the   *)
(* result's snapshots own them, and the state lets go of them when the  *)
(* run returns, so a result the caller drops is garbage at once rather  *)
(* than promoted by the next minor collection, wherever that falls.     *)
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

type entry = {
  e_session : session;
  e_unhandled : (string * Rat.t) list;
  e_placed : placed;
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
    if e.e_session.s_net == net then Some e.e_session.s_ticks.state else None
  in
  match List.find_map kept (Option.to_list memo.recent @ memo.hot) with
  | Some st -> st
  | None -> Netstate.create net

(* prologue, set-up and placement: the session, its unhandled events
   and the placed stamps *)
let prepare ?monitor memo net derived sched config =
  let assigned, unhandled = validate_and_assign net derived sched config in
  let s =
    make_session ?monitor
      ~state:(fun () -> state_for memo net)
      net derived sched config ~stamps:(assigned_stamps assigned)
  in
  { e_session = s; e_unhandled = unhandled; e_placed = place s assigned }

(* the entry that serves an unmonitored run, found or made *)
let lookup memo net derived sched config =
  let serves e =
    let s = e.e_session in
    s.s_net == net && s.s_derived == derived && s.s_sched == sched
    && same_config s.s_config config
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
    let e = prepare memo net derived sched config in
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
      let e =
        match monitor with
        | Some _ -> prepare ?monitor memo net derived sched config
        | None -> lookup memo net derived sched config
      in
      let r = exec e.e_session config ~unhandled_events:e.e_unhandled e.e_placed in
      Netstate.release_histories e.e_session.s_ticks.state;
      r)

let run_sharded ?shards:_ net derived sched config = run net derived sched config

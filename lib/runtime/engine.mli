(** Discrete-event multiprocessor runtime implementing the online
    static-order scheduling policy (Sec. IV).

    The static schedule's frame is repeated with period [H].  On each
    processor, independently, the runtime picks its jobs in static-order
    and executes a {e round} per job:

    - {e Synchronize invocation}: wait for the event invocation of the
      current job.  Periodic jobs are invoked at [frame·H + A_i].  A
      sporadic (server) job slot is matched against the real sporadic
      events that arrived in its window; if fewer real events arrived
      than the slot's position, the job is marked ['false'] and skipped.
      The window is right-closed, [(b−T', b]], when the sporadic process
      has functional priority over its user ([p → u(p)]), and
      left-closed otherwise (Fig. 2).
    - {e Synchronize precedence}: wait until all task-graph predecessors
      (running on any processor) have completed in this frame.
    - {e Execute} the job, unless marked ['false'].

    Job bodies run against the shared network state, so the simulation
    produces real output data; comparing its channel histories with the
    zero-delay interpreter's is the determinism check of Prop. 2.1 /
    Prop. 4.1.

    The frame-management overhead measured in Sec. V-A is modelled by
    delaying every job of frame [f] by [Platform.frame_overhead] and by
    inflating execution times per channel access. *)

type config = {
  platform : Platform.t;
  exec : Exec_time.t;
  frames : int;  (** number of hyperperiod frames to simulate *)
  sporadic : (string * Rt_util.Rat.t list) list;
      (** absolute real event stamps per sporadic process, over the
          whole simulation [\[0, frames·H)] *)
  inputs : Fppn.Netstate.input_feed;
}

val default_config : ?frames:int -> n_procs:int -> unit -> config

(** Traces, histories and overhead segments are lazy: the compiled tick
    core keeps its records as packed integer arrays and only
    materializes the rational view on demand — callers that consume
    just [stats] (benchmarks, gates) never pay for it.  Use the
    accessors below; forcing is not synchronized across domains. *)
type result = {
  trace : Exec_trace.t Lazy.t;
  channel_history : (string * Fppn.Value.t list) list Lazy.t;
      (** [Value] is [Fppn.Value] *)
  output_history : (string * Fppn.Value.t list) list Lazy.t;
  stats : Exec_trace.stats;
  unhandled_events : (string * Rt_util.Rat.t) list;
      (** sporadic events falling in the final, unsimulated window *)
  overhead_segments : (int * Rt_util.Rat.t * Rt_util.Rat.t) list Lazy.t;
      (** per-frame runtime-overhead activity, for Fig. 6-style charts *)
}

val trace : result -> Exec_trace.t
(** Forces and returns the trace, sorted by
    (start, processor, frame, job). *)

val channel_history : result -> (string * Fppn.Value.t list) list
val output_history : result -> (string * Fppn.Value.t list) list
val overhead_segments : result -> (int * Rt_util.Rat.t * Rt_util.Rat.t) list

(** A criticality monitor for {!run}: the dual-criticality mode switch
    of the mixed-criticality extension, layered on the online policy.
    Every frame starts in LO mode.  When a job with [is_hi] starts, the
    run also wakes up at [start + budget_lo job]; if the job is still
    running then, its frame degrades to HI mode ([on_switch frame
    instant], once per frame).  From then on, every job without [is_hi]
    that a processor reaches in that frame is dropped — recorded
    [skipped], its precedence obligations waived, [on_drop] called —
    before any invocation, overhead or precedence wait.  A degrade moves
    no processor, so one already polled at the switch instant sees it
    at the next fixpoint: a second one at that instant if the instant
    was queued twice or more (another finish or [C_LO] expiry, or a
    waiting processor's start), else its next wake-up.  Running jobs
    complete normally; the next frame starts in LO mode again.
    Execution times are sampled from the derived graph, so a caller
    maps each job's WCET to its criticality budget first.  [is_hi] and
    [budget_lo] must be pure. *)
type monitor = {
  is_hi : Taskgraph.Job.t -> bool;
  budget_lo : Taskgraph.Job.t -> Rt_util.Rat.t;  (** [C_LO] of a HI job *)
  on_switch : int -> Rt_util.Rat.t -> unit;  (** frame, switch instant *)
  on_drop : unit -> unit;
}

val run :
  ?monitor:monitor ->
  Fppn.Network.t -> Taskgraph.Derive.t -> Sched.Static_schedule.t -> config -> result
(** Runs on the compiled integer-tick core whenever every model time
    fits a common {!Rt_util.Timebase} grid, falling back to the exact
    rational interpreter otherwise; both produce bit-identical results.
    With [monitor], the mode-switched policy above, on the same two
    cores: the grid then also holds every HI job's [C_LO], and the run
    never replays steady frames, so every frame calls the monitor.

    Each domain keeps a run memo.  An unmonitored call is served from
    it when an earlier call on the same domain had the physically same
    network, derived graph and schedule, and a config with equal
    [frames], processor count and overhead and the physically same
    [exec], [inputs] and [sporadic] list.  Such a call skips the
    validation and window assignment, compilation and set-up, and goes
    straight to the core.  Its result is the one a fresh run would give.
    Results stay valid when a later run reuses the memo's scratch and
    network state: they own their records and snapshot their
    histories.  The memo keeps the last call's entry and at most 8 hot
    entries, least recently used out first.  An entry turns hot only
    when its (schedule, config) recurs among the last 8 calls that
    missed, so a caller that builds a fresh schedule or fresh stamps
    for every call keeps one entry at most.  An entry keeps its
    arguments alive while it is kept.  A monitored run is never
    memoized, as its budgets and callbacks are fresh per call; it only
    reuses a kept network state of the same network.
    @raise Invalid_argument if the schedule does not cover the derived
    graph, if [frames <= 0], or if a sporadic trace violates its
    generator's [(m,T)] constraint. *)

val run_sharded :
  ?shards:int ->
  Fppn.Network.t -> Taskgraph.Derive.t -> Sched.Static_schedule.t -> config -> result
(** {!run}, ignoring [shards]: an alias kept only because the benchmark
    harness ([perfbench/common.ml]), which changes only together with
    the benchmark itself, still calls it. *)

val run_reference :
  ?monitor:monitor ->
  Fppn.Network.t -> Taskgraph.Derive.t -> Sched.Static_schedule.t -> config -> result
(** {!run} forced onto the exact rational interpreter core — the
    semantic ground truth the compiled tick core is differentially
    tested against, with or without a [monitor].  Raises as {!run}. *)

val sporadic_assignment :
  Fppn.Network.t ->
  Taskgraph.Derive.t ->
  frames:int ->
  (string * Rt_util.Rat.t list) list ->
  ((int * int, Rt_util.Rat.t) Hashtbl.t * (string * Rt_util.Rat.t) list)
(** The window mapping of Sec. IV / Fig. 2, exposed for the
    timed-automata backend and for tests: maps [(server job id, frame)]
    to the real event stamp that slot handles; the second component
    lists the events left for the window after the simulated horizon.

    A server of period [T_s] has [S = H / T_s] windows per frame, and
    they tile the time line: window [w] ends at [b = w·T_s], covers
    [(b − T_s, b\]] when the sporadic has priority over its user and
    [\[b − T_s, b)] otherwise, and is slot [w mod S + 1] of frame
    [w / S].  A stamp [s] thus lies in window [⌈s / T_s⌉], respectively
    [⌊s / T_s⌋ + 1], and takes the server job of its rank among the
    stamps of that window.  One pass over each trace does it all:
    O(stamps + server jobs), independent of [frames].  Stamps in
    windows [w >= frames·S] are unhandled.
    @raise Invalid_argument as {!run} when a trace violates its
    generator's [(m, T)] constraint. *)

val handled_traces :
  Fppn.Network.t ->
  Taskgraph.Derive.t ->
  frames:int ->
  (string * Rt_util.Rat.t list) list ->
  (string * Rt_util.Rat.t list) list
(** The stamps the engine will handle: [traces] without the ones
    {!sporadic_assignment} leaves unhandled, so a zero-delay reference
    run over [frames] hyperperiods sees the events the engine does.
    @raise Invalid_argument as {!sporadic_assignment}. *)

val signature : result -> (string * Fppn.Value.t list) list
(** Channel write sequences (internal + external outputs), sorted by
    name — directly comparable with [Fppn.Semantics.signature]. *)

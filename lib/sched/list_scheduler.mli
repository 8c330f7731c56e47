(** Non-preemptive list scheduling on [M] identical processors
    (Sec. III-B).

    A job is {e ready} at time [t] when it has arrived ([A_i <= t]) and
    all task-graph predecessors have completed ([∀j ∈ Pred(i), e_j <= t]).
    The scheduler simulates fixed-priority dispatch under the given
    schedule priority [SP]: whenever a processor is idle, the
    highest-priority ready job starts on it. *)

val schedule :
  rank:int array -> n_procs:int -> Taskgraph.Graph.t -> Static_schedule.t
(** [rank] from {!Priority.rank} (lower = higher priority).
    The result maps and starts every job; it satisfies arrival,
    precedence and mutual exclusion by construction — only deadlines can
    be violated, which {!Static_schedule.check} reports.

    The graph is compiled per call into its integer tick view
    ({!Taskgraph.Tick_graph}), and the event loop runs on machine ints:
    ready jobs wait in a heap keyed by rank, released jobs for their
    arrival in a heap keyed by arrival tick, and started jobs for their
    completion in one keyed by finish tick.  Each processor's static
    order is then sorted by (start, id) in about linear time and handed
    to {!Static_schedule.of_orders}, and every start is rebuilt once as
    a {!Rt_util.Rat.t}.  A graph of [n] jobs and [E] edges schedules in
    [O((n + E) log n)] (times [M] for the processor scan).  The result
    equals, entry for entry and order for order, the one the same loop
    computes on rationals.

    A zero-WCET job finishes at the instant it starts and releases its
    successors at that instant.  Because the static order breaks equal
    start times by job id ({!Static_schedule.jobs_on}), such a job
    started on a processor moves behind a job of positive WCET and
    smaller id that starts there at the same instant.

    [rank] must be a permutation of [0..n-1], as {!Priority.rank} and
    every caller in this library produce: the ready heap does not break
    equal keys by insertion order.
    @raise Invalid_argument on a rank array of the wrong length, a rank
    that is not a permutation, or [n_procs <= 0].
    @raise Rt_util.Rat.Overflow when the graph has no integer grid: the
    common denominator of its times, their ticks, or the horizon
    [max(0, max A_i) + Σ C_i] in ticks does not fit in an [int]
    ({!Taskgraph.Tick_graph.compile}). *)

val schedule_ticks :
  rank:int array -> n_procs:int -> Taskgraph.Tick_graph.t -> Static_schedule.t
(** {!schedule} on an already compiled view, which it only reads: a
    caller that schedules one graph many times (a search over ranks)
    compiles it once.  Each call is one [sched.list] span, as a
    {!schedule} call is.
    @raise Invalid_argument as {!schedule}. *)

val schedule_with :
  heuristic:Priority.heuristic ->
  n_procs:int ->
  Taskgraph.Graph.t ->
  Static_schedule.t
(** {!Priority.rank_ticks} and {!schedule_ticks} on one compiled view:
    the graph is compiled once per call.
    @raise Rt_util.Rat.Overflow as {!schedule}. *)

type attempt = {
  heuristic : Priority.heuristic;
  schedule : Static_schedule.t;
  feasible : bool;
  makespan : Rt_util.Rat.t;
}

val auto :
  ?pool:Rt_util.Pool.t ->
  ?heuristics:Priority.heuristic list ->
  n_procs:int ->
  Taskgraph.Graph.t ->
  attempt list * attempt option
(** Tries every heuristic (default {!Priority.all}) and returns all
    attempts plus the chosen one: the first feasible schedule, by
    heuristic order; [None] if none is feasible.

    The graph is compiled once, before any heuristic runs, and every
    attempt reads that one view; each attempt still checks its schedule
    against all of Def. 3.2 ({!Static_schedule.is_feasible}).

    [pool] evaluates the heuristics concurrently; each heuristic is
    independent and the attempt list keeps heuristic order, so the
    result is identical to the sequential one.
    @raise Rt_util.Rat.Overflow as {!schedule}, before any attempt. *)

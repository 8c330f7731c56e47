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
    Released jobs wait for their arrival in a heap and started jobs for
    their completion in another, so a graph of [n] jobs and [E] edges
    schedules in [O((n + E) log n)] (times [M] for the processor scan).

    A zero-WCET job finishes at the instant it starts and releases its
    successors at that instant.  Because the static order breaks equal
    start times by job id ({!Static_schedule.jobs_on}), such a job
    started on a processor moves behind a job of positive WCET and
    smaller id that starts there at the same instant.
    @raise Invalid_argument on a rank array of the wrong length or
    [n_procs <= 0]. *)

val schedule_with :
  heuristic:Priority.heuristic ->
  n_procs:int ->
  Taskgraph.Graph.t ->
  Static_schedule.t
(** Convenience composition of {!Priority.rank} and {!schedule}. *)

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

    [pool] evaluates the heuristics concurrently; each heuristic is
    independent and the attempt list keeps heuristic order, so the
    result is identical to the sequential one. *)

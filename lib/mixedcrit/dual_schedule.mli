(** Dual static schedules for mixed-criticality execution.

    Compile time produces two consistent schedules from the same derived
    task graph:

    - the {e LO schedule}: every job, with optimistic budgets [C_LO] —
      what the system follows while nothing overruns;
    - the {e HI schedule}: only the jobs of [Hi] processes, with
      conservative budgets [C_HI] — the guarantee that, after a mode
      switch drops the [Lo] jobs, the critical work still meets its
      deadlines.  Precedence among [Hi] jobs is preserved through
      dropped [Lo] jobs (path-induced restriction).

    Both are produced by the same schedule-priority heuristic, so the
    relative order of [Hi] jobs agrees between modes. *)

type hi_part = {
  hi_graph : Taskgraph.Graph.t;  (** [Hi]-induced graph with [C_HI] budgets *)
  hi_to_full : int array;  (** hi-graph job id → full-graph job id *)
  hi_schedule : Sched.Static_schedule.t;  (** over [hi_graph] *)
}

type t = {
  derived : Taskgraph.Derive.t;  (** full derivation with [C_LO] budgets *)
  lo_schedule : Sched.Static_schedule.t;  (** over the full graph *)
  hi : hi_part option;  (** [None] iff the system has no [Hi] process *)
  heuristic : Sched.Priority.heuristic;
}

type error =
  | Derivation of Taskgraph.Derive.error
  | Inverted_budgets of string
      (** a [Hi] process, named, whose [C_HI] is below its [C_LO] *)
  | Lo_infeasible
  | Hi_infeasible

val pp_error : Format.formatter -> error -> unit

val build :
  ?heuristics:Sched.Priority.heuristic list ->
  n_procs:int ->
  spec:Spec.t ->
  Fppn.Network.t ->
  (t, error) result
(** Tries the heuristics in order until one yields feasible LO {e and}
    HI schedules.  A spec whose [C_HI] is below [C_LO] for some [Hi]
    process of the network is [Error (Inverted_budgets name)], checked
    first. *)

val build_exn :
  ?heuristics:Sched.Priority.heuristic list ->
  n_procs:int ->
  spec:Spec.t ->
  Fppn.Network.t ->
  t

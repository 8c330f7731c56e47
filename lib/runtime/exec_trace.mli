(** Execution traces of the multiprocessor runtime and their statistics
    (the data behind a Fig. 6-style Gantt chart and the deadline-miss
    counts of Sec. V). *)

type record = {
  job : int;  (** task-graph job id *)
  label : string;  (** [p\[k\]] *)
  frame : int;
  proc : int;
  invoked : Rt_util.Rat.t;
      (** absolute invocation stamp (a sporadic job's real event time) *)
  start : Rt_util.Rat.t;  (** absolute *)
  finish : Rt_util.Rat.t;
  deadline : Rt_util.Rat.t;
      (** absolute deadline of the real event: invocation + d_p *)
  skipped : bool;  (** a server slot marked ['false'] (no real event) *)
}

type t = record list

val missed : record -> bool
(** [finish > deadline], never true of skipped jobs. *)

val response_time : record -> Rt_util.Rat.t
(** [finish − invoked]. *)

type stats = {
  executed : int;
  skipped : int;
  misses : int;
  max_response : Rt_util.Rat.t;
  frames : int;
}

val stats : t -> stats

val misses_by_process : t -> (string * int) list
(** Processes with at least one miss, sorted by name. *)

type process_stats = {
  process : string;
  p_executed : int;
  p_skipped : int;
  p_misses : int;
  p_max_response : Rt_util.Rat.t;
  p_mean_response_ms : float;
}

val by_process : t -> process_stats list
(** Per-process response-time and miss statistics, sorted by name. *)

val pp_by_process : Format.formatter -> process_stats list -> unit
(** Tabular rendering. *)

val utilization : n_procs:int -> span:Rt_util.Rat.t -> t -> float array
(** Fraction of [span] each processor spent executing (skips excluded).
    @raise Invalid_argument on a non-positive span. *)

type violation =
  | Wcet_exceeded of record  (** ran longer than [C_i] *)
  | Started_before_invocation of record
  | Precedence_violated of { pred : record; succ : record }
      (** a task-graph edge, same frame, successor started too early *)
  | Processor_overlap of record * record

val pp_violation : Format.formatter -> violation -> unit

val check : Taskgraph.Graph.t -> t -> violation list
(** Validates that an execution trace complies with the real-time
    semantics of Sec. II (the conditions Prop. 4.1 promises): every job
    within its WCET, no start before invocation, task-graph precedence
    respected within each frame, and mutual exclusion per processor (a
    zero-length execution at the start of another one is not an
    overlap).
    Returns all violations (empty = compliant).  Used as a self-check on
    the engines in the test suite. *)

val to_gantt_rows : ?runtime_row:(int * Rt_util.Rat.t * Rt_util.Rat.t) list -> t -> Rt_util.Gantt.row list
(** One row per processor.  [runtime_row] optionally appends the
    per-frame runtime-overhead activity as an extra "runtime" row, as in
    Fig. 6 ([frame, busy-from, busy-to] triples). *)

val pp_stats : Format.formatter -> stats -> unit

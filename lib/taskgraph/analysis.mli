(** ASAP/ALAP times, the precedence-aware load metric, and the necessary
    schedulability condition (Sec. III-B, Prop. 3.1), computed once per
    task graph on its integer tick view ({!Tick_graph}).

    A tick view holds every time [r] as the integer [r·D]; [r ↦ r·D] is
    strictly increasing and commutes with [+], [−], [min] and [max], so
    the times below are the rational ones scaled by [D], and a ratio of
    two tick sums is the ratio of the rational sums ([D] cancels).

    {!of_ticks} costs two passes over the jobs and edges (ASAP forward
    over the topological order, ALAP backward), two sorts of the jobs,
    and the load sweep: [O(n log n + E + a·b)] for [a] distinct ASAP and
    [b] distinct ALAP values, with one integer add and one exact ratio
    comparison per cell.  A caller analyses a graph once and reads every
    answer from the result. *)

val alap : Tick_graph.t -> int array
(** [D'_i = min(D_i, min_{s ∈ Succ(i)} D'_s − C_s)] in ticks, over the
    reverse topological order — an upper bound on any feasible
    completion time.  [Sched.Priority]'s ALAP key. *)

val b_level : Tick_graph.t -> int array
(** [b_level.(i)] is the longest WCET path from job [i] to a sink,
    including [C_i], in ticks — the classic list-scheduling priority. *)

val compare_ratios : int -> int -> int -> int -> int
(** [compare_ratios a b c d] compares [a/b] with [c/d] exactly, for
    [a, c >= 0] and [b, d > 0]: by cross-multiplication while both
    products fit an [int], else by a continued-fraction comparison
    built from floor divisions only, so it never overflows. *)

type load_result = {
  value : Rt_util.Rat.t;
  window : Rt_util.Rat.t * Rt_util.Rat.t;
      (** a maximizing window [(t1, t2)] *)
}

type t = private {
  ticks : Tick_graph.t;  (** the analysed view *)
  asap : int array;
      (** [A'_i = max(A_i, max_{j ∈ Pred(i)} A'_j + C_j)] in ticks — a
          lower bound on any feasible start time *)
  alap : int array;  (** {!alap} of the view *)
  infeasible : int list;
      (** the jobs with [A'_i + C_i > D'_i], which cannot fit their own
          window, ascending *)
  load : load_result;
      (** [Load(TG) =
          max_{t1<t2} (Σ_{A'_i ≥ t1 ∧ D'_i ≤ t2} C_i) / (t2−t1)], the
          generalization of Liu's load to precedence constraints;
          zero over window [(0,1)] when no window holds work (an empty
          graph among them).  [t1] ranges over the distinct ASAP values
          descending and [t2] over the distinct ALAP values ascending,
          and only a strictly larger ratio replaces the best, so among
          equal ratios the window met first is kept. *)
}

val of_ticks : Tick_graph.t -> t
(** The analysis of a compiled view.  Ratios are compared exactly with
    {!compare_ratios}.  No {!Rt_util.Rat} operation runs in the sweep;
    the value is [Σ C_i / (t2 − t1)] in ticks, and the window's ends
    come from {!Tick_graph.to_rat}.
    @raise Rt_util.Rat.Overflow only when a window's length [t2 − t1]
    does not fit an [int], which needs times of both signs beyond
    [max_int/2]: {!Tick_graph.compile} bounds every other sum. *)

val analyse : Graph.t -> t
(** [of_ticks (Tick_graph.compile g)].
    @raise Rt_util.Rat.Overflow where {!Tick_graph.compile} does: the
    graph has no integer grid. *)

val lower_bound : t -> int
(** [max 1 ⌈Load⌉], or [max_int] when some job cannot fit its ASAP/ALAP
    window on any processor count: the processor count that
    dimensioning and admission start from. *)

type violation =
  | Job_infeasible of int
      (** [A'_i + C_i > D'_i]: the job cannot fit its own window *)
  | Load_exceeds of { load : Rt_util.Rat.t; processors : int }
      (** [⌈Load⌉ > M] *)

val pp_violation : Graph.t -> Format.formatter -> violation -> unit

val necessary_condition : t -> processors:int -> (unit, violation list) result
(** Prop. 3.1: a task graph is schedulable on [M] processors only if
    every job fits its ASAP/ALAP window and [⌈Load⌉ ≤ M].  The
    violations list every infeasible job, ascending, then the load. *)

(** Quotient-level static interference analysis (shardability core).

    A runtime that runs jobs in parallel, in any order the task graph
    allows, stays deterministic only when every pair of jobs touching
    the same channel is ordered by a precedence path in the derived
    task graph.  An O(J^2) job-level transitive-closure bitset decides
    this per plan (it survives as the differential oracle
    [Fppn_fuzz.Static_diff.closure_conflicts_ordered]).  This module
    decides the same property {e statically at the process level}: the infinite job sequence folds over one hyperperiod into
    (process, phase) classes — at most [burst * H / T'] per process —
    and job-level reachability between two processes reduces to a
    single monotone sweep over those classes in the total invocation
    order [<J], giving O(P^2 * H / Tmin) instead of O(J^2).

    Key structural facts, mirroring {!Taskgraph.Derive}:

    - {b Directly related accessors are always ordered.}  If the
      transformed priority relation [fp'] has a direct edge between the
      writer and the reader (Def. 2.1), every pair of their jobs lies
      on a [<J] chain of precedence edges, so the verdict is
      [Ordered] with the two-process witness — no folding needed.
    - {b Transitively related accessors may still interleave.}  A pair
      ordered only through intermediate processes (lint code FPPN011)
      is decided exactly by the class sweep: either every job pair is
      bridged by intermediate jobs ([Ordered] with the witness process
      chain) or some concrete pair of invocations is incomparable
      ([Unordered] naming it).
    - {b Folding can be impossible.}  Sporadic processes whose server
      transformation is undefined (no unique periodic user with
      [T_u <= T_p], Sec. III-A), a transformed-priority cycle, a
      hyperperiod overflow, or a class count beyond
      {!max_sweep_classes} yield [Sporadic_hazard] — an abstention, not
      a proof of a race. *)

type offending = {
  off_proc_a : string;  (** process of the earlier, unordered job *)
  off_k_a : int;  (** its invocation count within the hyperperiod *)
  off_proc_b : string;
  off_k_b : int;
}
(** A concrete incomparable job pair: invocation [off_k_a] of
    [off_proc_a] and invocation [off_k_b] of [off_proc_b] share a
    channel but no precedence path orders them. *)

type verdict =
  | Ordered of string list
      (** every job pair is precedence-ordered; the witness is a chain
          of process names (writer-to-reader side first) in which
          consecutive processes are directly priority-related, along
          which the ordering paths run *)
  | Unordered of offending  (** statically proven order violation *)
  | Sporadic_hazard of string
      (** the quotient could not be built; the reason says why *)

type channel_verdict = {
  cv_channel : string;
  cv_writer : string;
  cv_reader : string;
  cv_verdict : verdict;
}

type hotspot = {
  hs_channel : string;
  hs_writer : string;
  hs_reader : string;
  hs_pair_utilization : Rt_util.Rat.t;
      (** combined utilization of the two accessors *)
  hs_total_utilization : Rt_util.Rat.t;
}
(** A partition-cut hotspot: the accessor pair's combined utilization
    exceeds the balanced-partition share [1.1 * total / 2], so any cut
    of the processors into [>= 2] parts balanced within that share must
    place writer and reader on different parts, and the channel's
    traffic crosses the cut. *)

type t = {
  network : string;
  hyperperiod : Rt_util.Rat.t option;
      (** [None] when the fold failed (see [Sporadic_hazard]) *)
  classes : int;  (** total (process, phase) classes over one hyperperiod *)
  channels : channel_verdict list;  (** one per channel declaration *)
  hotspots : hotspot list;
}

val max_sweep_classes : int
(** Budget on the total class count above which non-direct pairs
    abstain with [Sporadic_hazard] instead of sweeping. *)

val analyse : Model.t -> t
(** Whole-network analysis.  Channels whose writer or reader is not a
    declared process abstain ([Sporadic_hazard]); a channel whose
    writer equals its reader is trivially [Ordered]. *)

val shardable : t -> bool
(** [true] iff every channel verdict is [Ordered] — the precondition
    under which a runtime that runs jobs in parallel, in any order the
    task graph allows, is deterministic by construction. *)

(** Classical response-time analysis for preemptive fixed-priority
    uniprocessor scheduling (Joseph & Pandya / Audsley; the textbook
    theory of the paper's reference [9], Liu, {e Real-Time Systems}).

    For process [i] with budget [C_i] and higher-priority interference:

    [R_i = C_i + Σ_{j ∈ hp(i)} m_j · ⌈R_i / T_j⌉ · C_j]

    iterated to a fixpoint.  Sporadic processes are analysed at their
    maximal rate ([m_j] events per minimal period [T_j]) — exactly the
    worst case their generator admits.

    This gives an {e analytic} bound on what the [Runtime.Preemptive]
    simulator can produce under [Fixed] priorities on one processor; the
    test suite checks simulation ≤ analysis, and the FMS experiment
    compares the bound with the observed maxima. *)

type entry = {
  process : string;
  priority : int;  (** smaller = higher *)
  response : Rt_util.Rat.t option;
      (** [None]: the iteration exceeded the deadline — unschedulable *)
  deadline : Rt_util.Rat.t;  (** relative *)
}

val rm_priorities : Fppn.Network.t -> (string * int) list
(** The rate-monotonic assignment, smaller = higher: ascending period,
    ties broken by functional-priority rank, then by name.  Every
    process gets a distinct priority, in [0, n). *)

val analyse :
  ?priorities:(string * int) list ->
  wcet:Taskgraph.Derive.wcet_map ->
  Fppn.Network.t ->
  entry list
(** Default priorities: {!rm_priorities}.  Entries are sorted by
    priority. *)

val schedulable : entry list -> bool
(** All processes have a response within their deadline. *)

val pp : Format.formatter -> entry list -> unit

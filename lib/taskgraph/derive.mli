(** Task-graph derivation from an FPPN (Sec. III-A).

    Steps, following the paper:
    + replace each sporadic process [p] by an [m]-periodic {e server}
      process [p'] with period [T_p' = T_u(p)] and priority
      [p' → u(p)]; its jobs' deadlines are corrected to
      [d_p' = d_p − T_p'] to compensate the worst-case one-period
      postponement (conservatively: arrival counted at the window start).
      When [d_p <= T_u(p)], footnote 3 applies: the server period is the
      largest fraction [T_u(p)/q] smaller than [d_p];
    + simulate the invocation order of the transformed network over one
      hyperperiod [H = lcm T_p], giving the totally ordered job sequence
      [J] (ordered by arrival time, then functional priority, then
      invocation count);
    + add a precedence edge [(J_a, J_b)] whenever [J_a <J J_b] and the
      two jobs belong to the same process or to directly
      priority-related ([./]) processes;
    + truncate required times to the hyperperiod;
    + remove redundant edges by transitive reduction. *)

type wcet_map = string -> Rt_util.Rat.t
(** Worst-case execution time of each process (profiled, in the paper). *)

val const_wcet : Rt_util.Rat.t -> wcet_map
val wcet_of_list : Rt_util.Rat.t -> (string * Rt_util.Rat.t) list -> wcet_map
(** [wcet_of_list default assoc]. *)

val server_period :
  user_period:Rt_util.Rat.t -> deadline:Rt_util.Rat.t -> Rt_util.Rat.t
(** Transformed server period [T_p']: the user period when
    [deadline > user_period], else footnote 3's largest fraction
    [T_u/q < deadline].  Exported so static analyses can fold sporadic
    processes exactly as the derivation does. *)

type server_info = {
  sporadic : int;  (** process index in the source network *)
  user : int;  (** [u(p)] *)
  server_period : Rt_util.Rat.t;  (** [T_p'] *)
  server_relative_deadline : Rt_util.Rat.t;  (** [d_p − T_p'] (> 0) *)
  boundary_closed_right : bool;
      (** Sec. IV boundary rule: [true] iff [p → u(p)] in the source
          network, i.e. a real job invoked exactly at a window boundary
          [b] is handled by the subset arriving at [b] (interval
          [(a,b\]]); otherwise it belongs to the next subset. *)
}

type t = {
  graph : Graph.t;
  hyperperiod : Rt_util.Rat.t;
  servers : server_info list;
  raw_edges : int;
      (** edge count of the full step-3 relation, before transitive
          reduction.  When reducing, this count is computed from the
          per-process job columns; the full relation is not built. *)
  order : int list;  (** job ids in the total invocation order [<J] *)
}

type error =
  | Subclass of Fppn.Network.user_error list
  | Transformed_priority_cycle of string list
      (** replacing [u → p] by [p' → u] re-cycled the priority DAG *)
  | Hyperperiod_overflow
      (** [lcm T_p'] is not representable ({!Rt_util.Rat.Overflow}) *)

val pp_error : Format.formatter -> error -> unit

val derive : ?reduce:bool -> wcet:wcet_map -> Fppn.Network.t -> (t, error) result
(** [reduce] (default true) controls the final transitive reduction —
    switchable for the ablation benchmark.  With [~reduce:false] the
    graph is the full step-3 relation, each job's successors in
    ascending id order.  Reducing starts from a sparse generator with
    the same reachability (each job linked to the next job of each
    related process), so the result is the unique transitive reduction
    of the full relation, its successors in descending id order.
    Either way the predecessors are in ascending id order and the
    topological order is the identity, since job ids follow [<J].

    The graph is built directly as successor lists
    ({!Graph.of_succs}).  The reduction is one sweep in descending job
    id: each job takes its generator successors in ascending id,
    drops one already reachable through a smaller one, and adds a kept
    one and everything it reaches to its own reachability row.  The
    rows are one flat int matrix of [m·(⌊m/63⌋+1)] words for [m] jobs
    (about 35 MB at 16 500 jobs), allocated once on the major heap and
    dropped when the call returns; each kept edge ORs only the words of
    its successor's row above that successor's id. *)

val derive_exn : ?reduce:bool -> wcet:wcet_map -> Fppn.Network.t -> t

val server_of : t -> int -> server_info option
(** Server info for a process index ([None] for periodic processes). *)

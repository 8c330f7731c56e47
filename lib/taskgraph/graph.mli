(** The task graph [TG(J, E)] (Def. 3.1): a DAG whose nodes are jobs
    and whose edges constrain execution order.

    A graph is frozen when built: it stores every job's successor and
    predecessor lists, its edge count, its topological order and each
    process's job ids once, and every accessor below reads them without
    copying, except where its cost is stated. *)

type t

val of_succs : Job.t array -> int list array -> t
(** [of_succs jobs succs] is the graph whose job [u] has the successors
    [succs.(u)], kept in that order (the array is kept, not copied).
    [jobs.(i).id] must equal [i], every process index must be
    non-negative, each successor must be a job id listed at most once
    per source, and the edges must be acyclic.  The predecessors of each
    job are listed in ascending source id.
    @raise Invalid_argument on a length mismatch, a non-positional id,
    a negative process index, a successor out of range or repeated, or
    a cycle. *)

val reduction : Job.t array -> int list array -> t
(** [reduction jobs succs] is the transitive reduction of
    [of_succs jobs succs] (unique for a DAG), built without building
    that graph: the constructor of {!Derive} and {!induced}.  One sweep
    of {!reach} in reverse topological order drops each edge whose
    target another successor reaches, and overwrites [succs.(u)] with
    [u]'s kept successors in the reverse of their given order, so an
    ascending list comes out descending; a successor listed twice is
    kept once.  The array is then kept as {!of_succs} keeps it.
    Checked as {!of_succs} checks its input, repeats aside.
    @raise Invalid_argument as {!of_succs} does. *)

val n_jobs : t -> int
val n_edges : t -> int
val job : t -> int -> Job.t
val jobs : t -> Job.t array

val preds : t -> int -> int list
(** The stored predecessor list, [O(1)]. *)

val succs : t -> int -> int list
(** The stored successor list, [O(1)]. *)

val edges : t -> (int * int) list
(** Every edge, by ascending source; each source's successors in the
    reverse of {!succs} order.  A fresh list, [O(n + E)]. *)

val has_edge : t -> int -> int -> bool
(** Scans the source's successor list, [O(out-degree)].
    @raise Invalid_argument when either job is out of range. *)

val topo_order : t -> int list
(** The least topological order by job id, computed once when the graph
    is built: the identity when every edge points to a higher id, as in
    every derived graph, else Kahn's algorithm, smallest ready id
    first. *)

val sources : t -> int list
val sinks : t -> int list
(** Jobs with no predecessor, or with no successor, ascending: [O(n)]. *)

val jobs_of_process : t -> int -> int list
(** Job ids of one source process, ascending [k] (equal [k] by
    descending id); [\[\]] for a process with no job.  Stored, [O(1)]. *)

val find_job : t -> proc:int -> k:int -> int
(** @raise Not_found *)

val total_wcet : t -> Rt_util.Rat.t

type reach
(** Job-level reachability: one bit per ordered pair of jobs,
    [n·(⌊n/63⌋+1)] words for [n] jobs. *)

val reach : t -> reach
(** The reachability of a graph, by lib's one job-level sweep: rows are
    filled in reverse {!topo_order}, each the OR of its successors'
    rows, and when ids are a topological order (every derived graph) a
    successor's row is ORed only from its own id up.  [O(n + E·n/63)]. *)

val reaches : reach -> int -> int -> bool
(** [reaches r a b]: a non-empty path leads from job [a] to job [b].
    [O(1)].  @raise Invalid_argument when either job is out of range. *)

val induced : keep:(Job.t -> bool) -> t -> t * int array
(** [induced ~keep g] is the subgraph on the jobs satisfying [keep],
    with ids renumbered positionally; the returned array maps new ids
    back to the original ones.  Precedence is preserved through dropped
    jobs: two kept jobs are connected iff a path joined them in [g]
    (read from {!reach}, then {!reduction}), so scheduling the
    restriction still respects the original ordering constraints.
    Successors come out in descending id, predecessors ascending.
    @raise Invalid_argument if no job is kept. *)

val disjoint_union : ?prefixes:string array -> t list -> t * (int * int) array
(** [disjoint_union gs] merges several task graphs into one: job ids are
    renumbered positionally (graphs in list order), process indices are
    offset per graph so [jobs_of_process] stays disjoint across members,
    and no cross-graph edges are added.  Each member's successor lists
    come out reversed, in the order of its {!edges}.  [prefixes.(i)], if
    given, is prepended to every process name of graph [i] (useful to
    keep Gantt and trace labels distinguishable when co-scheduling
    applications).
    The returned array maps each merged job id to
    [(graph index, original job id)].
    @raise Invalid_argument on an empty list, an empty member graph, or
    a prefix array of the wrong length. *)

val map_wcet : (Job.t -> Rt_util.Rat.t) -> t -> t
(** Same structure with per-job WCETs replaced (e.g. switching a
    mixed-criticality graph from optimistic to conservative budgets).
    The adjacency, order and process table are shared, not rebuilt. *)

val to_dot : t -> string
(** Fig. 3-style rendering: nodes labelled [p\[k\] (A,D,C)]. *)

val to_json : t -> string
(** Machine-readable dump for external tools: a JSON object with a
    [jobs] array (id, process, k, arrival/deadline/wcet as exact strings
    and [*_ms] floats, server flag) and an [edges] array of id pairs. *)

(** Mutable directed graphs over integer nodes [0..n-1].

    Shared by the functional-priority graph (which must be a DAG,
    Def. 2.1), the task graph (Def. 3.1) and DOT export.  Edges are kept
    unique; insertion order of successors is preserved. *)

type t

val create : int -> t
(** [create n] is an edgeless graph with nodes [0..n-1]. *)

val n_nodes : t -> int
val n_edges : t -> int

val add_edge : t -> int -> int -> unit
(** Idempotent; self-loops are allowed (and make the graph cyclic). *)

val remove_edge : t -> int -> int -> unit
val has_edge : t -> int -> int -> bool

val succs : t -> int -> int list
(** Successors in insertion order. *)

val preds : t -> int -> int list
val out_degree : t -> int -> int
val in_degree : t -> int -> int
val edges : t -> (int * int) list
(** Every edge, by ascending source node; each node's successors come
    in {e reverse} insertion order, unlike {!succs}.
    {!transitive_reduction} inserts its kept edges in this order, so
    reducing a graph whose successors were inserted in ascending id
    order (as task-graph derivation does) yields successors in
    descending id order. *)

val copy : t -> t

val topo_sort : t -> int list option
(** Kahn's algorithm; [None] iff the graph has a cycle.  Ties are broken
    by node index, so the order is deterministic. *)

val is_acyclic : t -> bool

val find_cycle : t -> int list option
(** Some witness cycle [v0; v1; ...; vk] with an edge [vk -> v0]. *)

val reachable_from : t -> int -> Bitset.t
(** Nodes reachable from a node by a non-empty path (the node itself is
    included only if it lies on a cycle). *)

val transitive_closure : t -> Bitset.t array
(** [closure.(v)] is {!reachable_from}[ t v] for every [v], computed in
    one pass (DAG only).
    @raise Invalid_argument on a cyclic graph. *)

val transitive_reduction : t -> t
(** Smallest subgraph with the same reachability relation (unique for
    DAGs).  @raise Invalid_argument on a cyclic graph. *)

val path_exists : t -> int -> int -> bool
(** True iff there is a non-empty path from the first to the second node. *)

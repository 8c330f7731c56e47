(** Static schedules (Def. 3.2): a processor mapping [µ_i] and a start
    time [s_i] for every job, repeated each hyperperiod as the paper's
    {e periodic frame}. *)

type entry = { proc : int; start : Rt_util.Rat.t }

type t

val make : n_procs:int -> entry array -> t
(** [entry.(job_id)] for every job of the graph; the static order of
    each processor ({!jobs_on}) is sorted here, then checked as
    {!of_orders} checks it.
    @raise Invalid_argument on an empty array, negative starts, or a
    processor out of range. *)

val of_orders : n_procs:int -> entry array -> int array array -> t
(** [of_orders ~n_procs entries orders] is {!make} for a caller that
    has the static orders already: [orders.(p)] must list exactly the
    jobs mapped to processor [p], ascending by (start, id) under
    {!Rt_util.Rat.compare}.  Checked in one linear pass; the arrays are
    kept, not copied.
    @raise Invalid_argument as {!make} does, on an [orders] array whose
    length is not [n_procs], or on an order that misses a job, lists a
    job of another processor, or is not sorted. *)

val n_procs : t -> int
val n_jobs : t -> int
val entry : t -> int -> entry
val start : t -> int -> Rt_util.Rat.t
val proc : t -> int -> int

val finish : Taskgraph.Graph.t -> t -> int -> Rt_util.Rat.t
(** [e_i = s_i + C_i]. *)

val makespan : Taskgraph.Graph.t -> t -> Rt_util.Rat.t

val jobs_on : t -> int -> int list
(** Job ids mapped to one processor, ascending start time (ties by id)
    — the {e static order} executed by the online policy. *)

val order_on : t -> int -> int array
(** {!jobs_on} as a fresh array, from the order table compiled once at
    {!make} — the form the runtime engine consumes. *)

type violation =
  | Arrival of int  (** [s_i < A_i] *)
  | Deadline of int  (** [e_i > D_i] *)
  | Precedence of int * int  (** edge [(i,j)] with [e_i > s_j] *)
  | Overlap of int * int  (** same processor, overlapping execution *)

val pp_violation : Taskgraph.Graph.t -> Format.formatter -> violation -> unit

val check : Taskgraph.Graph.t -> t -> violation list
(** All feasibility violations of Def. 3.2 (empty = feasible). *)

val is_feasible : Taskgraph.Graph.t -> t -> bool
(** [check g t = \[\]], decided in place: the four conditions over the
    stored successor lists and static orders, each finish computed
    once, stopping at the first violation; no violation list is built. *)

val to_gantt_rows : Taskgraph.Graph.t -> t -> Rt_util.Gantt.row list
(** One row per processor, one bar per job — Fig. 4-style. *)

val pp : Taskgraph.Graph.t -> Format.formatter -> t -> unit
(** Tabular dump: job, processor, start, finish, deadline. *)

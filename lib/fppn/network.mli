(** Fixed-Priority Process Networks (Def. 2.1).

    An FPPN is a tuple [(P, C, FP, e_p, I_e, O_e, d_e, Σ_c, CT_c)]:
    processes, internal channels (a directed graph, possibly cyclic), an
    acyclic {e functional-priority} graph [FP], one event generator per
    process, external I/O channels partitioned among the generators, and
    channel types.

    Static well-formedness enforced by {!Builder.finish}:
    - process names unique, channel endpoints exist, no self channels;
    - [FP] is a DAG;
    - every pair of processes sharing a channel is related by a direct
      [FP] edge ((p1,p2) ∈ C ⇒ p1 → p2 ∨ p2 → p1);
    - external I/O names unique and owned by existing processes.

    The {e scheduling subclass} of Sec. III-A (each sporadic process has
    exactly one periodic user of no larger period) is checked separately
    by {!user_map} because the model itself does not require it. *)

type channel_decl = {
  ch_name : string;
  ch_kind : Channel.kind;
  writer : string;
  reader : string;
  init : Value.t option;
}

type io_dir = In | Out

type io_decl = { io_name : string; owner : string; dir : io_dir }

type t

type error =
  | Duplicate_process of string
  | Unknown_process of string
  | Duplicate_channel of string
  | Self_channel of string
  | Priority_cycle of string list
  | Missing_priority of { channel : string; writer : string; reader : string }
  | Duplicate_io of string
  | Empty_network

val pp_error : Format.formatter -> error -> unit

(** Imperative construction API. *)
module Builder : sig
  type net = t
  type b

  val create : string -> b
  val add_process : b -> Process.t -> unit

  val add_channel :
    b ->
    ?init:Value.t ->
    kind:Channel.kind ->
    writer:string ->
    reader:string ->
    string ->
    unit

  val add_priority : b -> string -> string -> unit
  (** [add_priority b hi lo] declares the functional-priority edge
      [hi → lo] (jobs of [hi] precede simultaneous jobs of [lo]). *)

  val add_input : b -> owner:string -> string -> unit
  val add_output : b -> owner:string -> string -> unit

  val finish : b -> (net, error list) result
  (** Validates the declarations.  Of duplicate priority declarations
      the first is kept, so {!fp_edges} lists each edge once, in the
      order of first declaration.  Linear in processes + channels +
      priority and external channel declarations. *)

  val finish_exn : b -> net
  (** @raise Invalid_argument listing all validation errors. *)
end

val name : t -> string
val n_processes : t -> int
val processes : t -> Process.t array
val process : t -> int -> Process.t
val find : t -> string -> int
(** @raise Not_found *)

val channels : t -> channel_decl list
val inputs : t -> io_decl list
val outputs : t -> io_decl list
val io_of : t -> string -> io_decl list
(** External I/O owned by a process name. *)

val fp_edges : t -> (int * int) list
(** Functional-priority edges over process indices. *)

val related : t -> int -> int -> bool
(** The [p ./ q] relation: a direct FP edge in either direction. *)

val higher_priority : t -> int -> int -> bool
(** Direct edge [p → q]. *)

val fp_rank : t -> int -> int
(** Position of a process in the deterministic topological order of the
    FP DAG; simultaneous jobs execute by ascending rank. *)

val channels_between : t -> int -> int -> channel_decl list
(** Channels with these endpoints, in either direction. *)

val in_channels_of : t -> int -> channel_decl list
(** Internal channels read by a process. *)

val out_channels_of : t -> int -> channel_decl list

val hyperperiod : t -> Rt_util.Rat.t
(** [lcm] of all process periods (sporadic processes contribute their
    minimal period [T_p]).  For the scheduling flow, use the hyperperiod
    of the server-transformed network computed by [Taskgraph.Derive]. *)

type user_error =
  | No_user of string
  | Ambiguous_user of string * string list
  | Sporadic_user of { sporadic : string; user : string }
  | User_period_too_large of { sporadic : string; user : string }

val pp_user_error : Format.formatter -> user_error -> unit

val channel_partners :
  int -> keep:(int -> bool) -> ('c -> int * int) -> 'c list -> int list array
(** [channel_partners n ~keep ends chans]: for each process index
    [p < n] with [keep p], the other endpoints of the channels of
    [chans] that touch [p], ascending and without duplicates, where
    [ends c] is the (writer, reader) index pair of [c]; [[]] for every
    other [p].  One pass over [chans], and none when no [p] is kept.
    {!user_map} and lint's Sec. III-A pass take a sporadic process's
    users from it. *)

val user_map : t -> (int option array, user_error list) result
(** Sec. III-A restriction: for each sporadic process [p], the unique
    periodic process [u(p)] connected to [p] by a channel, with
    [T_u(p) <= T_p].  Entry is [None] for periodic processes.  Errors
    come in process order.  Linear in processes + channels; a network
    without sporadic processes builds no partner index. *)

val to_dot : t -> string
(** Graphviz rendering in the style of Fig. 1: solid arrows for
    channels (labelled with their type), dashed arrows for pure
    functional-priority edges. *)

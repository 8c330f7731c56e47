(** Random FPPN workload generator for stress tests, benchmark sweeps
    and differential fuzzing.

    Generated networks always satisfy Def. 2.1 (FP DAG covering every
    channel pair) and the Sec. III-A scheduling subclass (every sporadic
    process has a single periodic user of no larger period, and a
    deadline exceeding the user period).  Process bodies are generic:
    read every input channel, combine with the invocation index, write
    every output channel — enough to exercise determinism checks.

    The drawn topology is exposed as a {!spec} value with fine-grained
    mutation hooks (flip a functional-priority edge, drop a channel or a
    process), so the fuzzer can inject priority-order bugs into a
    system-under-test copy and shrink failing workloads structurally
    without re-rolling the PRNG. *)

type params = {
  seed : int;
  n_periodic : int;  (** >= 1 *)
  n_sporadic : int;
  periods : int list;  (** candidate periods (ms); keep their lcm small *)
  channel_density : float;
      (** probability that an ordered periodic pair gets a channel *)
  max_burst : int;  (** sporadic burst drawn from [1..max_burst] *)
}

val default_params : params

(** {1 Workload topology} *)

type chan_spec = {
  cw : int;  (** writer periodic index *)
  cr : int;  (** reader periodic index *)
  fifo : bool;  (** FIFO channel, else blackboard *)
  rev_fp : bool;
      (** reversed functional priority: the FP edge runs reader →
          writer instead of the default writer → reader *)
  no_fp : bool;
      (** the channel declares {e no} FP edge at all — a deliberate
          Def. 2.1 violation ({!build} returns [Error]) used to seed
          known determinism races for the static analyzer's tests *)
}

type sporadic_spec = {
  sp_name : string;
  sp_user : int;  (** periodic index of the user [u(p)] *)
  sp_burst : int;
  sp_min_period : int;  (** [T_p], a multiple of the user's period *)
  sp_higher : bool;  (** FP edge sporadic → user (else user → sporadic) *)
}

type spec = {
  label : string;  (** network name *)
  periods : int array;  (** period of periodic process [P<i>] *)
  chans : chan_spec list;
  sporadics : sporadic_spec list;
}

val periodic_name : int -> string
(** ["P<i>"], the name {!build} gives periodic process [i]. *)

val channel_name : string -> string -> string
(** [channel_name w r] is ["ch_<w>_<r>"], the name {!build} gives the
    channel from writer [w] to reader [r]. *)

val spec_of_params : params -> spec
(** Deterministic in [params.seed]; mutation-free builds of the result
    equal {!network}[ params]. *)

val wide_spec : ?n:int -> ?pairs:int -> unit -> spec
(** [wide_spec ~n ~pairs ()] (defaults 16500 / 64): a deliberately
    {e wide} network — [n] periodic processes, all with period 100, so
    the derived graph has exactly [n] jobs per hyperperiod (one each),
    plus [pairs] disjoint blackboard channel pairs [P2i -> P2i+1] with
    the default direct priority edge.  Built directly (no PRNG, no
    O(n^2) density loop), it is the stress shape for static
    certification: >16384 jobs while every channel pair stays trivially
    [Ordered]. *)

val build : spec -> (Fppn.Network.t, string) result
(** [Error] when a mutation broke well-formedness (e.g. a flipped FP
    edge closing a priority cycle). *)

val build_exn : spec -> Fppn.Network.t
(** @raise Invalid_argument on ill-formed specs. *)

val spec_processes : spec -> int
(** Total process count (periodic + sporadic). *)

(** {1 Mutation hooks}

    All return [None] when the referenced element does not exist (or,
    for {!drop_periodic}, when the last periodic process would vanish).
    Flips preserve process and channel names, so channel histories of a
    mutated network remain name-comparable with the original's. *)

val flip_channel_fp : spec -> writer:int -> reader:int -> spec option
val flip_sporadic_fp : spec -> string -> spec option

val drop_channel_fp : spec -> writer:int -> reader:int -> spec option
(** Marks the channel [no_fp]: its FP edge disappears while the channel
    stays, breaking Def. 2.1 on that accessor pair.  [None] if there is
    no such channel or its edge is already dropped. *)

val seed_race : Rt_util.Prng.t -> spec -> (spec * (int * int)) option
(** Seeds a {e known} determinism race: picks (uniformly, via the given
    generator) a channel whose writer/reader pair becomes unordered even
    transitively once its own FP edge is dropped, and drops that edge.
    Returns the mutated spec and the offending [(writer, reader)]
    periodic indices — a labeled positive for the race detector.  [None]
    when every channel pair stays transitively ordered (or there are no
    channels). *)

val drop_channel : spec -> writer:int -> reader:int -> spec option
val drop_sporadic : spec -> string -> spec option

val drop_periodic : spec -> int -> spec option
(** Removes periodic process [i], its incident channels and the
    sporadics it serves as user for; higher indices shift down. *)

(** {1 Whole-network convenience API} *)

val network : params -> Fppn.Network.t
(** Deterministic in [params.seed]. *)

val wcet : scale:Rt_util.Rat.t -> Taskgraph.Derive.wcet_map -> Fppn.Network.t -> Taskgraph.Derive.wcet_map
(** [wcet ~scale fallback net] assigns each process
    [scale · T_p], falling back to [fallback] for unknown names. *)

val sporadic_names : Fppn.Network.t -> string list

val random_traces :
  seed:int ->
  horizon:Rt_util.Rat.t ->
  density:float ->
  Fppn.Network.t ->
  (string * Rt_util.Rat.t list) list
(** Valid random event traces for all sporadic processes. *)

(** A resident application of the multi-tenant service: an elaborated
    FPPN together with everything the service needs to run it
    deterministically — the Sec. III-A derivation, a feasible static
    schedule, the engine configuration, and the MPR interface admission
    granted it ({!Mpr.t}).

    A tenant's execution is {e epoch}-based: each epoch the service
    hands it the legalized sporadic events collected since the last
    epoch and runs [frames] hyperperiod frames of its own engine plan.
    The plan is compiled once: the tenant's first epoch builds an
    engine session ({!Runtime.Engine.session}), on whichever domain
    runs it, and every later epoch only places its stamps on the kept
    tick grid.  The tenant records the events so {!Service.verify} can
    replay the exact same epoch standalone and compare its signature
    with {!last_signature} — the per-tenant determinism oracle of the
    paper's Prop. 4.1, lifted to a shared host. *)

type plan = {
  net : Fppn.Network.t;
  wcet : Taskgraph.Derive.wcet_map;
  inputs : Fppn.Netstate.input_feed;
  derive : Taskgraph.Derive.t;
  schedule : Sched.Static_schedule.t;
  n_procs : int;  (** processors the static schedule occupies *)
}

val build_plan :
  ?pool:Rt_util.Pool.t ->
  ?inputs:Fppn.Netstate.input_feed ->
  ?derive:Taskgraph.Derive.t ->
  min_procs:int ->
  max_procs:int ->
  wcet:Taskgraph.Derive.wcet_map ->
  Fppn.Network.t ->
  (plan, int) result
(** Derives the task graph (or reuses [derive] if the caller already
    has it) and searches [M = min_procs, …, max_procs]
    for the first processor count where {!Sched.List_scheduler.auto}
    finds a feasible schedule.  [Error searched_up_to] when none is —
    the raw material for a [No_schedule] admission rejection.
    @raise Taskgraph.Derive.Error when the network is outside the
    derivable subclass.
    @raise Invalid_argument when [min_procs < 1] or
    [max_procs < min_procs]. *)

type t = {
  name : string;
  plan : plan;
  interface : Mpr.t;  (** the admitted MPR contract *)
  taskset : Mpr.task list;
  load : Rt_util.Rat.t;  (** Prop. 3.1 precedence-aware load *)
  lower_bound : int;  (** [⌈Load⌉] *)
  mutable epochs_run : int;
  mutable events_consumed : int;
      (** sporadic events fed so far that a server job handled; those
          left in an epoch's final server window are not counted *)
  mutable last_events : (string * Rt_util.Rat.t list) list;
      (** the sporadic traces of the most recent epoch that completed *)
  mutable session : (int * Runtime.Engine.session) option;
      (** the engine session of the tenant's epochs, with their frame
          count: [None] until the first epoch builds it *)
}

val make :
  name:string ->
  plan:plan ->
  interface:Mpr.t ->
  taskset:Mpr.task list ->
  load:Rt_util.Rat.t ->
  lower_bound:int ->
  t

val hyperperiod : t -> Rt_util.Rat.t

val sporadic_events : t -> (string * Fppn.Event.t) list
(** The sporadic processes of the tenant's network with their
    generators, for event legalization ([(m, T)] window constraint and
    horizon clamp). *)

val config :
  t -> frames:int -> sporadic:(string * Rt_util.Rat.t list) list ->
  Runtime.Engine.config
(** The engine configuration for one epoch: the tenant's own platform
    size [plan.n_procs], constant execution times at WCET, the given
    legalized sporadic traces. *)

type outcome = {
  executed : int;  (** jobs the engine ran this epoch *)
  misses : int;  (** deadline misses this epoch *)
  consumed : int;  (** stamps a server job handled this epoch *)
  unhandled : int;
      (** stamps the engine left unhandled this epoch
          ([Runtime.Engine.result.unhandled_events]): legal stamps in
          the epoch's final server window, whose subset arrives only
          at the next epoch's origin *)
}

val run_epoch :
  t -> frames:int -> sporadic:(string * Rt_util.Rat.t list) list -> outcome
(** Runs one epoch on the tenant's session
    ({!Runtime.Engine.run_session}), building the session first if the
    tenant has none for [frames], records [sporadic] on the tenant, and
    returns the outcome.  Raises as {!Runtime.Engine.run_session} (in
    particular on an illegal sporadic trace — the service legalizes
    before calling — and on stamps no tick grid holds, which the session
    refuses before any job body runs); an epoch that raises leaves no
    signature behind. *)

val last_signature : t -> (string * Fppn.Value.t list) list option
(** The output signature of the most recent epoch, read on demand from
    the session's network state ({!Runtime.Engine.last_signature}):
    [None] before the first epoch and after an epoch that raised. *)

val standalone_signature :
  t -> frames:int -> (string * Fppn.Value.t list) list
(** The determinism oracle: re-runs the tenant's {e last} epoch (same
    events, same frames) as a fresh standalone sequential
    {!Runtime.Engine.run}, which compiles its own grid with the
    epoch's stamps and never reuses the tenant's session, and returns
    its signature.  Equal to {!last_signature} iff co-residency did not
    perturb the tenant. *)

val to_json : t -> Rt_util.Json.t

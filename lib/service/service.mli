(** The multi-tenant FPPN service: a registry of co-resident
    applications, MPR admission control at the door, an async event
    queue at the side, and an epoch loop that runs every tenant's
    deterministic engine plan over the shared worker pool.

    Determinism contract: co-residency must be unobservable.  Every
    tenant's epoch is an independent engine run
    ({!Runtime.Engine.run_session}) on the tenant's own session and
    elaborated network — tenants share worker domains and nothing else
    — so each tenant's output signature must equal the signature of the
    same epoch run standalone.  {!verify} checks exactly that, and the
    [@gate] build alias runs it over 100+ tenants.

    Metrics (under [service.*]): [events_ingested], [events_dropped]
    (illegal or unaddressed), [events_backpressure] (queue-full
    rejects), [epochs], [jobs_executed], [deadline_misses], and the
    [service.tenants] gauge. *)

type t

type epoch_report = {
  epoch : int;  (** 1-based epoch number just completed *)
  events_drained : int;  (** pulled off the queue this epoch *)
  events_dropped : int;  (** unknown tenant/process, out of horizon, or thinned by the [(m,T)] rule *)
  events_consumed : int;  (** handled by a tenant's server job this epoch *)
  events_unhandled : int;
      (** legal, but in the epoch's final server window
          ([(frames·H − T_s, frames·H)] when the sporadic has priority
          over its user, [\[frames·H − T_s, frames·H)] otherwise): the
          subset that would handle them arrives at the next epoch's
          origin, so the engine leaves them unhandled.  Every drained
          event is counted once: [events_drained = events_consumed +
          events_dropped + events_unhandled]. *)
  jobs_executed : int;
  deadline_misses : int;
  wall_s : float;
}

val create : ?queue_capacity:int -> procs:int -> frames:int -> unit -> t
(** A service hosting tenants on [procs] shared processors, running
    [frames] hyperperiod frames per tenant per epoch.  [queue_capacity]
    (default 1024) bounds the ingestion queue.
    @raise Invalid_argument if [procs <= 0], [frames <= 0] or
    [queue_capacity <= 0]. *)

val procs : t -> int
val frames : t -> int
val tenants : t -> Tenant.t list
(** In registration order. *)

val find : t -> string -> Tenant.t option
val resident_interfaces : t -> Mpr.t list

val bandwidth : t -> Rt_util.Rat.t
(** [Σ Θ_i/Π_i] over the resident interfaces, kept as an exact running
    sum: {!register} adds the admitted interface's bandwidth and
    {!retire} subtracts it, so it always equals the sum over
    {!resident_interfaces}. *)

val register :
  ?pool:Rt_util.Pool.t ->
  ?inputs:Fppn.Netstate.input_feed ->
  t ->
  name:string ->
  wcet:Taskgraph.Derive.wcet_map ->
  Fppn.Network.t ->
  (Tenant.t, Admission.reason) result
(** Admission: name uniqueness, the Prop. 3.1 load bound, MPR interface
    generation, composition with the resident interfaces, then
    construction of a feasible static schedule ({!Tenant.build_plan}) —
    any failure is a machine-readable {!Admission.reason}, a network
    outside the derivable subclass of Sec. III-A included
    ({!Admission.Underivable}) and times whose exact arithmetic
    overflows an [int] ({!Admission.Overflow}, naming the step; the
    service is left as it was).  The composition reads the running
    {!bandwidth} and the residents' largest concurrency
    ({!Admission.decide_composed}), so it costs O(1) in bandwidth
    arithmetic; its decision is {!Admission.decide}'s against
    {!resident_interfaces}.  On success the tenant is resident and will
    run from the next epoch on; its engine session is built by its
    first epoch, not here. *)

val retire : t -> string -> bool
(** Removes a tenant; its reserved bandwidth is freed for future
    admissions.  [false] if no tenant has that name.  Never affects the
    verdict that admitted the remaining residents (composition is
    antitone in the set). *)

val submit : t -> tenant:string -> process:string -> stamp:Rt_util.Rat.t -> bool
(** Queue a sporadic event for [tenant]'s process, stamped relative to
    the {e next} epoch's origin.  Lock-free, callable from any domain.
    [false] = queue full (counted as backpressure). *)

val queue_pending : t -> int
val backpressure : t -> int

val run_epoch : ?pool:Rt_util.Pool.t -> t -> epoch_report
(** Drains the queue and groups the events by tenant on the calling
    domain, then runs one task per tenant, in parallel over [pool] when
    given (each tenant is touched by exactly one worker; results are
    published by the pool join): the task legalizes the tenant's batch
    ({!Ingest.legalize}) and runs its epoch on the tenant's engine
    session ({!Tenant.run_epoch}).  Tenant order never affects any
    tenant's output — each epoch is an independent engine run.
    @raise Invalid_argument when a tenant's session refuses its epoch's
    stamps: legal stamps that no tick grid holds with the tenant's
    model times, such as a stamp [1/1000000000000037] ms off an
    integer ([submit] takes any rational; [serve] submits integer ms).
    Whatever a tenant's job body raises escapes too. *)

val verify : ?pool:Rt_util.Pool.t -> t -> (string * bool) list
(** The determinism oracle: for every tenant whose most recent epoch
    left a signature ({!Tenant.last_signature}), replay that epoch
    standalone ({!Tenant.standalone_signature}, a fresh engine run
    that never reuses the tenant's session) and compare signatures.
    All [true] iff co-residency was unobservable. *)

val epoch_report_to_json : epoch_report -> Rt_util.Json.t
val status_json : t -> Rt_util.Json.t
(** Service-level snapshot: platform, tenant table (with interfaces),
    composed bandwidth, queue and counter state. *)

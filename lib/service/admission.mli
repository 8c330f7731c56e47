(** Admission control for the multi-tenant service.

    A candidate is admitted when (1) it passes the Prop. 3.1 necessary
    condition on its own ([⌈Load⌉ <= M]), (2) an MPR interface exists
    for its demand ({!Mpr.generate_interface}), and (3) the interface
    composes with every resident tenant's interface on the [M] shared
    processors ({!Mpr.compose}).  Rejections carry a machine-readable
    reason.

    Both checks behind the verdict are monotone in [M] and antitone in
    the resident set (the interface itself is platform-independent), so
    a tenant set admitted on [M] processors is admitted on [M + 1], and
    retiring a tenant never flips a resident's verdict — properties
    pinned by the QCheck suite. *)

type candidate = {
  c_name : string;
  c_load : Rt_util.Rat.t;  (** Prop. 3.1 precedence-aware load *)
  c_lower_bound : int;  (** [⌈Load⌉] (or [max_int] if a job is infeasible) *)
  c_taskset : Mpr.task list;
}

val candidate :
  ?analysis:Taskgraph.Analysis.t ->
  name:string ->
  wcet:Taskgraph.Derive.wcet_map ->
  Fppn.Network.t ->
  Taskgraph.Derive.t ->
  candidate
(** Folds the derived graph's Prop. 3.1 analysis (its load and lower
    bound) and the network's server-transformed task set into an
    admission candidate.  [analysis] is the graph's own
    ({!Taskgraph.Analysis.analyse}), computed here when not given.
    @raise Rt_util.Rat.Overflow when the graph has no integer grid. *)

type reason =
  | Duplicate_tenant of string
  | Underivable of string
      (** the network is outside the Sec. III-A subclass: the
          [Taskgraph.Derive.pp_error] text *)
  | Load_bound of { load : Rt_util.Rat.t; lower_bound : int; procs : int }
      (** Prop. 3.1: [⌈Load⌉ > M] (or a job cannot fit its window) *)
  | No_interface of { utilization : Rt_util.Rat.t }
      (** no MPR contract within the search bounds covers the demand *)
  | Compose_utilization of { total : Rt_util.Rat.t; procs : int }
      (** [Σ Θ_i/Π_i > M] with the candidate included *)
  | Compose_concurrency of { required : int; procs : int }
      (** [max m'_i > M] with the candidate included *)
  | No_schedule of { procs : int }
      (** the list scheduler found no feasible static order up to [M] *)
  | Overflow of { step : string }
      (** exact arithmetic overflowed an [int] in one step of
          {!Service.register}: ["candidate"] (the Prop. 3.1 analysis),
          ["decide"] (the MPR interface and its composition) or ["plan"]
          (the static schedule) *)

type decision = Accepted of Mpr.t | Rejected of reason

val decide : procs:int -> resident:Mpr.t list -> candidate -> decision
(** The admission test described above.  [resident] are the interfaces
    of the currently hosted tenants; [procs] the platform size [M].
    @raise Invalid_argument if [procs <= 0]. *)

val decide_composed :
  procs:int -> bandwidth:Rt_util.Rat.t -> concurrency:int -> candidate ->
  decision
(** {!decide} against residents summarized by their total bandwidth
    [Σ Θ_i/Π_i] and their largest concurrency [max m'_i] ([0] when there
    are none), composed by {!Mpr.compose_totals}: the same decision,
    without a pass over the residents. *)

val reason_to_json : reason -> Rt_util.Json.t
(** [{"code": "...", ...}] — one stable [code] per constructor plus the
    constructor's numeric fields, so callers can match rejections
    without parsing prose. *)

val decision_to_json : decision -> Rt_util.Json.t
val pp_reason : Format.formatter -> reason -> unit
val pp_decision : Format.formatter -> decision -> unit

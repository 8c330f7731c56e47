(** Serializable, machine-checkable shardability certificates.

    A certificate packages the {!Interference} analysis of one network:
    the per-channel ordering verdicts, the partition-cut hotspots and
    the overall [shardable] bit, which the legacy O(J^2) job-bitset
    closure decides too.  Certificates are lint: no engine consumes
    them.  They render as diagnostics (stable codes FPPN060/061/062),
    serialize to a pinned JSON schema, and can be re-checked against a
    network with {!validate}. *)

type t = {
  version : int;  (** schema version, currently 1 *)
  network : string;
  hyperperiod : string option;  (** [Rat.to_string]; [None] if unfoldable *)
  classes : int;
  shardable : bool;
  channels : Interference.channel_verdict list;
  hotspots : Interference.hotspot list;
}

val version : int

val make : Interference.t -> t
val of_model : Model.t -> t

val of_network :
  ?wcet:(string -> Rt_util.Rat.t option) -> Fppn.Network.t -> t
(** Certify a validated network (via {!Model.of_network}).  [wcet]
    feeds the FPPN062 hotspot analysis; without it no hotspots are
    reported. *)

val shardable : t -> bool

val diagnostics : t -> Diagnostic.t list
(** FPPN060 (error) per [Unordered] channel with the offending
    invocation pair named, FPPN061 (warning) per [Sporadic_hazard]
    abstention, FPPN062 (info) per partition-cut hotspot.  An empty
    list means the certificate accepts the network. *)

val to_json : t -> string
(** Stable schema, version 1:
    [{"version":1,"network":..,"hyperperiod":..,"classes":..,
    "shardable":..,"channels":[{"channel":..,"writer":..,"reader":..,
    "verdict":"ordered","witness":[..]} | {..,"verdict":"unordered",
    "proc_a":..,"k_a":..,"proc_b":..,"k_b":..} | {..,
    "verdict":"sporadic-hazard","reason":..}],"hotspots":[{"channel":..,
    "writer":..,"reader":..,"pair_utilization":..,
    "total_utilization":..}]}]. *)

val of_json : string -> (t, string) result

val validate : t -> Model.t -> (unit, string) result
(** Machine-check: witness endpoints must match the channel accessors,
    and the certificate must agree verdict-for-verdict with a fresh
    analysis of [model]. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering used by [fppn-tool certify]. *)

(** Lint-vs-oracle differential: are the fuzzer's sabotage injections
    visible {e statically}, without running any engine?

    For a sabotaged case the base spec and the system-under-test spec
    are both linted and their {!Fppn_lint.Diagnostic.fingerprint}s are
    compared {e on the sabotaged channel's subject only}.  A flipped
    functional-priority edge changes whether that edge runs with or
    against the channel's data flow, so the FPPN022 entry for that
    channel toggles — a non-empty symmetric difference means the
    injection is statically distinguishable.  Clean (uninjected) specs
    must lint without error-severity findings. *)

type outcome =
  | Caught of string  (** a diagnostic code that distinguishes the SUT *)
  | Missed
  | Not_applicable  (** no sabotage, or its target does not exist *)

val check :
  base:Fppn_apps.Randgen.spec -> Oracle.sabotage -> outcome

val check_case : Oracle.case -> outcome
(** {!check} on the case's spec and sabotage. *)

type summary = {
  cases : int;
  injected : int;  (** cases whose sabotage had a target *)
  caught : int;
  missed : int;
  not_applicable : int;
  clean_errors : int;
      (** base (unsabotaged) specs with error-severity lint findings —
          must be 0: randgen output is well-formed by construction *)
  codes : (string * int) list;  (** catching diagnostic codes, counted *)
  wall_time_s : float;
}

val run :
  ?log:(string -> unit) ->
  ?max_periodic:int ->
  ?max_sporadic:int ->
  seed:int ->
  budget:int ->
  inject:Campaign.inject ->
  unit ->
  summary
(** Draws [budget] workloads with {!Campaign.draw_spec} and sabotages
    them with {!Campaign.choose_sabotage} (defaults 6 periodic /
    2 sporadic as in {!Campaign.default_config}), then runs {!check} on
    each — no engine, no traces. *)

val passed : inject:Campaign.inject -> summary -> bool
(** Injection modes: some injections landed and none were missed.
    [No_injection]: no clean spec linted with errors. *)

val pp : Format.formatter -> summary -> unit

(** {1 Certificate differential}

    Closes the loop on static shardability certification
    ({!Fppn_lint.Certificate}).  Every buildable case checks two
    certificates against the legacy job-level closure
    ({!closure_conflicts_ordered}): the spec model's, and the built
    network's ([Certificate.of_network]).  An unbuildable case is
    provably order-violating, since [Randgen.build] refuses exactly the
    Def. 2.1 violations {!Fppn_apps.Randgen.seed_race} plants, so the
    certificate must reject it.  Each verdict that differs from the
    closure or the builder counts a disagreement. *)

val closure_conflicts_ordered : Taskgraph.Graph.t -> Fppn.Network.t -> bool
(** The legacy job-level check: every pair of jobs of
    channel-conflicting processes is ordered by a precedence path,
    decided with {!Taskgraph.Graph.reach} — O(J^2) bits.  The
    ground-truth oracle the certificate is tested against; no engine
    path calls it. *)

type certify_summary = {
  cc_cases : int;
  cc_accepts : int;  (** certificate says shardable *)
  cc_rejects : int;  (** certificate refuses (every other case is raced) *)
  cc_unbuildable_rejects : int;
      (** rejected specs the builder also refuses: provably order-violating *)
  cc_disagreements : int;
      (** certificate-vs-closure or certificate-vs-builder conflicts —
          must be 0 *)
  cc_wall_time_s : float;
}

val certify :
  ?log:(string -> unit) ->
  ?max_periodic:int ->
  ?max_sporadic:int ->
  seed:int ->
  budget:int ->
  unit ->
  certify_summary
(** Runs [budget] cases; no engine runs at all. *)

val certify_passed : certify_summary -> bool
(** No disagreements, at least one accept and at least one reject. *)

val pp_certify : Format.formatter -> certify_summary -> unit

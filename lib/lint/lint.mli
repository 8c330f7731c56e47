(** The multi-pass static analyzer.

    Five passes over a {!Model.t} (after a structural pre-pass that
    resolves names and flags duplicates, self channels, and channels,
    priorities or external channels naming an undeclared process):

    + {b determinism races} (FPPN010/011) — process pairs that can
      touch a common channel at a coinciding invocation instant must be
      ordered by the functional-priority relation (the Prop. 2.1
      precondition).  A pair ordered only transitively is flagged as a
      warning (Def. 2.1 asks for a direct edge); an unordered pair is an
      error, with the coincidence evidence (exact period lcm for
      periodic pairs, conservative any-instant for sporadic) in the
      message.
    + {b FP DAG hygiene} (FPPN020/021/022) — cycles, transitively
      redundant edges covering no channel, and priority edges running
      against a channel's data-flow direction.
    + {b Sec. III-A subclass} (FPPN030..033) — every sporadic process
      has exactly one user, periodic, with [T_u <= T_p]; mirrors
      [Fppn.Network.user_map], taking the users from the same
      [Fppn.Network.channel_partners].
    + {b channel misuse} (FPPN040/041/042) — channels never read or
      never written by behaviors whose channel accesses are statically
      known, and FIFO rate mismatches computed from periods alone
      (complementing the dynamic [Fppn_verify.Buffer_analysis]).
    + {b timing sanity} (FPPN050/051/052) — [d > T] on periodic
      processes, WCET above deadline, and the Prop. 3.1 necessary
      utilization bound when every process has a WCET.

    Results come back in {!Diagnostic.sort} order. *)

val lint_model : ?processors:int -> Model.t -> Diagnostic.t list
(** [processors] enables the hard Prop. 3.1 check (FPPN052 error when
    utilization exceeds the count); without it the bound is reported as
    an info giving the minimal feasible processor count.  Both need a
    complete WCET assignment, else the pass is silent. *)

val lint_network :
  ?file:string ->
  ?wcet:(string -> Rt_util.Rat.t option) ->
  ?processors:int ->
  Fppn.Network.t ->
  Diagnostic.t list
(** Lints {!Model.of_network}[ net].  A validated network cannot race
    (the builder enforces Def. 2.1), so this surfaces the warning/info
    passes plus timing findings from [wcet]. *)

val lint_ast :
  ?file:string -> ?processors:int -> Fppn_lang.Ast.network -> Diagnostic.t list
(** Lints a parsed [.fppn] network {e before} elaboration, so even
    networks the builder would reject produce positioned diagnostics.
    @raise Fppn_lang.Elaborate.Error as {!Model.of_ast}. *)

val lint_spec :
  ?processors:int -> Fppn_apps.Randgen.spec -> Diagnostic.t list
(** Lints {!Model.of_spec}[ spec] — including specs sabotaged by the
    fuzz adversary or race-seeded via [Randgen.seed_race]. *)

(** The analyzer's neutral view of an FPPN.

    [Fppn.Network.Builder] refuses ill-formed networks outright, so a
    determinism race can never be represented as a [Fppn.Network.t].
    The lint model is deliberately weaker: it represents {e any}
    declared topology — including ones with missing priority edges,
    cycles or dangling references — so the analyzer can explain what is
    wrong instead of merely rejecting.  Models are built from three
    sources:

    - a validated {!Fppn.Network.t} (element-level subjects only);
    - a parsed [.fppn] AST ({e before} elaboration, so findings carry
      [file:line:col] positions even when the builder would reject);
    - a {!Fppn_apps.Randgen.spec} (so the fuzz subsystem lints mutated
      workloads, e.g. with a dropped priority edge, without building). *)

type proc = {
  p_name : string;
  p_sporadic : bool;
  p_burst : int;  (** [m_e] *)
  p_period : Rt_util.Rat.t;  (** [T_e]; minimal inter-arrival for sporadic *)
  p_deadline : Rt_util.Rat.t;
  p_wcet : Rt_util.Rat.t option;
  p_reads : string list option;
      (** channels the behavior statically reads; [None] when the
          behavior is opaque (native closure / unresolved extern) *)
  p_writes : string list option;
  p_pos : Fppn_lang.Ast.pos option;
}

type chan = {
  c_name : string;
  c_kind : Fppn.Channel.kind;
  c_writer : string;
  c_reader : string;
  c_pos : Fppn_lang.Ast.pos option;
}

type io = {
  io_name : string;
  io_owner : string;
  io_pos : Fppn_lang.Ast.pos option;
}
(** An external input or output channel and the process that owns it. *)

type t = {
  m_name : string;
  m_file : string option;
  m_procs : proc list;
  m_chans : chan list;
  m_fp : (string * string * Fppn_lang.Ast.pos option) list;
      (** declared functional-priority edges [hi -> lo] *)
  m_ios : io list;  (** declared external channels *)
}

val of_network :
  ?file:string ->
  ?wcet:(string -> Rt_util.Rat.t option) ->
  Fppn.Network.t ->
  t
(** Automaton behaviors expose their read/write channel sets; [Native]
    behaviors are opaque. *)

val of_ast : ?file:string -> Fppn_lang.Ast.network -> t
(** Keeps duplicate declarations and unknown references for the
    analyzer to report.  Machine behaviors expose their channel
    accesses; [extern] behaviors are opaque.  Per-process [wcet]
    annotations populate [p_wcet].
    @raise Fppn_lang.Elaborate.Error as elaboration does, at the first
    process whose machine {!Fppn_lang.Elaborate.behavior_of_machine}
    rejects (a [goto] to an undeclared location, at the transition) or
    whose event parameters {!Fppn.Event} rejects (at the process): no
    analysis is defined on a machine that cannot run or on a zero
    period. *)

val of_spec : Fppn_apps.Randgen.spec -> t
(** Mirrors {!Fppn_apps.Randgen.build} (generic bodies read every input
    and write every output) without requiring the spec to be buildable:
    a spec with a dropped FP edge ({!Fppn_apps.Randgen.seed_race})
    still yields a model. *)

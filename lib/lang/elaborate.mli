(** Elaboration: FPPN description AST → executable [Fppn.Network.t].

    Inline machine behaviors become Def. 2.2 automata; [extern]
    behaviors are resolved against a host-supplied table (so data-heavy
    bodies like the FFT butterflies can stay in OCaml while the network
    structure lives in a [.fppn] file). *)

exception Error of string * Ast.pos

val to_network :
  ?externs:(string * Fppn.Process.behavior) list ->
  Ast.network ->
  Fppn.Network.t
(** @raise Error on elaboration problems carrying a source position:
    an [extern] process without a host binding, duplicate machine
    variables, a [goto] to an undeclared location, or any
    [Fppn.Network] validation error (anchored at the declaration that
    caused it — e.g. a [Missing_priority] points at the uncovered
    channel's declaration). *)

val event : Ast.process_decl -> Fppn.Event.t
(** The declaration's event generator.
    @raise Error at the declaration on parameters {!Fppn.Event}
    rejects: a burst below 1, or a period or deadline that is not
    positive. *)

val wcet_map :
  default:Rt_util.Rat.t -> Ast.network -> string -> Rt_util.Rat.t
(** Per-process [wcet] annotations, with [default] for unannotated
    processes. *)

val behavior_of_machine : Ast.machine -> Fppn.Process.behavior
(** Expose the machine→automaton translation (used by tests). *)

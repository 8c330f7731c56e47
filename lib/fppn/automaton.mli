(** Deterministic process automata (Def. 2.2).

    A process is a tuple [(l0, L, X, X0, I, O, A, T)]: locations
    (source-code line numbers), internal variables with initial values,
    input/output channels, and guarded transitions whose actions are
    variable assignments, channel reads and channel writes.

    A {e job execution run} is a non-empty sequence of transition steps
    that brings the automaton back to its initial location; variables
    persist across runs (that is how state such as filter coefficients
    survives), while the location is guaranteed to be [l0] at both ends
    of every run.

    Determinism: at each step the first transition (in declaration
    order) out of the current location whose guard evaluates to [true]
    is taken.  Well-formed automata should have mutually exclusive
    guards; the declaration order makes execution deterministic even
    when they are not. *)

type loc = string

(** Expressions over internal variables.  [Avail x] tests that variable
    [x] does not hold {!Value.Absent} — the idiom for "did the last read
    return data?". *)
type expr =
  | Const of Value.t
  | Var of string
  | Avail of string
  | Neg of expr
  | Not of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Mod of expr * expr
  | Eq of expr * expr
  | Lt of expr * expr
  | Le of expr * expr
  | And of expr * expr
  | Or of expr * expr

type action =
  | Assign of string * expr  (** [x := e] *)
  | Read of string * string  (** [x ? c]: read channel [c] into variable [x] *)
  | Write of string * expr   (** [e ! c]: write the value of [e] to channel [c] *)

type transition = {
  src : loc;
  guard : expr;      (** must evaluate to [Bool] *)
  actions : action list;
  dst : loc;
}

type t

val make :
  initial:loc ->
  vars:(string * Value.t) list ->
  transitions:transition list ->
  t
(** @raise Invalid_argument if a guard or an action names an undeclared
    variable, or if no transition leaves [initial]. *)

val initial : t -> loc
val variables : t -> (string * Value.t) list
val transitions : t -> transition list

val locations : t -> loc list
(** All locations mentioned, initial first, without duplicates. *)

val channels_read : t -> string list
val channels_written : t -> string list

(** {1 Execution}

    An automaton runs as a compiled program, built on its first job:
    locations become integers (the initial one is 0), each location's
    outgoing transitions an array in declaration order, every variable
    a slot of the running instance's local store, and every guard,
    expression and action a closure over that store.  The program is
    published through an [Atomic.t]; building it is idempotent, so two
    domains racing on one automaton's first job build equal programs
    and either may publish.  [make] compiles nothing, so front-end
    passes that never run a job ([lint], [certify], [derive]) pay
    nothing for it. *)

val slot_names : (string * 'a) list -> string array
(** The local-store layout of a variable declaration list: one slot per
    distinct name, in order of first declaration.  A duplicate
    declaration shares its name's slot, and the last initial value
    wins.  {!Instance} lays out its store with this function, and
    {!exec} addresses variables by these indices. *)

exception Stuck of loc
(** Raised by {!exec} when no transition out of the current location is
    enabled. *)

val exec :
  t ->
  Value.t array ->
  read:(string -> Value.t) ->
  write:(string -> Value.t -> unit) ->
  unit
(** [exec t slots ~read ~write] executes one job run: steps from the
    initial location until it is reached again, updating [slots] (laid
    out by {!slot_names} over {!variables}) and routing channel accesses
    through [read]/[write].  At each step the first enabled transition
    is taken and its actions run in order.  Binary operands are
    evaluated right to left ([Mod]: left to right), and [And]/[Or]
    short-circuit.
    @raise Stuck if execution cannot continue.
    @raise Invalid_argument on a type error (e.g. adding booleans, or a
    guard that is not a [Bool]), and after 10 000 steps without
    returning to the initial location, the guard against
    non-terminating job runs.
    @raise Division_by_zero on an integer [Div] or [Mod] by zero. *)

(** Runtime instance of a process: its persistent local-variable store
    and invocation counter.

    Shared by the zero-delay interpreter, the multiprocessor runtime,
    the uniprocessor and global-EDF baselines and the timed-automata
    backend, so that all of them execute process behaviors through
    exactly the same code path.

    The local store is an array laid out by {!Automaton.slot_names} over
    the process' [locals]: one slot per distinct name, the last
    duplicate declaration's initial value winning.  An automaton
    behavior runs as its compiled program ({!Automaton.exec}) directly
    on that array, built on the automaton's first job; a native body
    reaches it by name through its job context. *)

type t

val create : Process.t -> t
val process : t -> Process.t

val job_count : t -> int
(** Jobs completed so far; the next job has index [job_count + 1]. *)

val get : t -> string -> Value.t
(** Current value of a local variable.  @raise Not_found *)

val run_job :
  t ->
  now:Rt_util.Rat.t ->
  read:(string -> Value.t) ->
  write:(string -> Value.t -> unit) ->
  unit
(** Executes one job run of the behavior.  [read]/[write] resolve
    channel names (the caller adds trace recording and internal/external
    routing).  Increments the job counter.  Whatever the behavior
    raises escapes unchanged, and the counter then stays put: for an
    automaton, {!Automaton.Stuck}, [Invalid_argument] on a type error
    or past the step bound, and [Division_by_zero] (see
    {!Automaton.exec}). *)

type prepared
(** A behavior pre-bound to a channel router: a native body's job
    context is allocated once and rebound per invocation; an automaton
    keeps only the router, as its program runs on the local store. *)

val prepare :
  t ->
  read:(string -> Value.t) ->
  write:(string -> Value.t -> unit) ->
  prepared
(** Builds the reusable execution context over [read]/[write].  The
    closures are captured for the lifetime of the result, so they must
    route against live state (e.g. read a mutable input-feed field
    rather than capture a feed value). *)

val run_prepared : t -> prepared -> now:Rt_util.Rat.t -> unit
(** Executes one job run through a {!prepare}d context without
    allocating a context.  Equivalent to {!run_job} with the same
    router, exceptions included; increments the job counter. *)

val reset : t -> unit
(** Restores initial variable values and a zero counter. *)

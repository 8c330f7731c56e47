(** Zero-delay semantics of FPPN (Sec. II-B).

    Given the invocation sequence [(t1, P1), (t2, P2), …] produced by
    the event generators, the trace is
    [w(t1) ∘ α1 ∘ w(t2) ∘ α2 …], where [α_i] runs the jobs invoked at
    [t_i] atomically, in functional-priority order: if [p1 → p2] then
    the job(s) of [p1] execute before the job(s) of [p2].

    This interpreter is the {e reference implementation} against which
    the real-time runtime ([Runtime.Engine]) and the timed-automata
    translation ([Timedauto.Translate]) are compared when testing
    Prop. 2.1 (deterministic execution) and Prop. 4.1 (schedule
    correctness). *)

type invocation = { time : Rt_util.Rat.t; process : int }

type event_trace = invocation list
(** Ascending by time; simultaneous invocations in any order (the
    semantics re-sorts by functional priority). *)

val invocations :
  ?sporadic:(string * Rt_util.Rat.t list) list ->
  horizon:Rt_util.Rat.t ->
  Network.t ->
  event_trace
(** Invocations over [\[0, horizon)].  Periodic processes generate their
    own stamps; sporadic processes take the stamps listed for them in
    [sporadic] (default: never invoked).
    @raise Invalid_argument if a sporadic trace violates its generator's
    [(m, T)] constraint, refers to an unknown or periodic process, or if
    stamps fall outside the horizon. *)

type input_feed = string -> int -> Value.t
(** [feed channel k] is sample [k] (1-based) of an external input
    channel — the paper's [x?\[k\]I]. *)

val no_inputs : input_feed
(** Always {!Value.Absent}. *)

val feed_of_list : (string * Value.t list) list -> input_feed
(** Finite per-channel sample lists; exhausted ⇒ {!Value.Absent}. *)

type result = {
  trace : Trace.t;
  channel_history : (string * Value.t list) list;
      (** per internal channel: all values written, in order *)
  output_history : (string * Value.t list) list;
      (** per external output channel *)
  job_counts : (string * int) list;  (** executed jobs per process *)
}

val instants : Network.t -> event_trace -> (Rt_util.Rat.t * int list) list
(** The event trace grouped into invocation instants, ascending by time;
    each instant lists its invoked processes in functional-priority
    order, a process once per invocation (a sporadic burst repeats it).
    This is the order in which {!run} executes jobs. *)

val run : ?inputs:input_feed -> Network.t -> event_trace -> result
(** Executes the whole event trace under zero-delay semantics. *)

val signature : result -> (string * Value.t list) list
(** The determinism signature of Prop. 2.1: the write sequences of all
    internal and external output channels, sorted by channel name.  Two
    semantics-respecting executions of the same network on the same
    inputs must have equal signatures. *)

val equal_signature :
  (string * Value.t list) list -> (string * Value.t list) list -> bool
(** Equality of two signatures, such as those of {!signature},
    [Runtime.Engine.signature] or [Timedauto.Translate.signature]:
    same channel names in the same order, and {!Value.equal} histories. *)

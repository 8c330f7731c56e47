(** Mutable execution state of a network: channel contents, external
    output recorders and per-process instances.

    All interpreters (zero-delay, multiprocessor runtime, uniprocessor
    baseline, timed-automata) drive their jobs through {!run_job}, which
    routes channel names to internal channel state, external input
    feeds, or external output recorders, and optionally records the
    accesses in a {!Trace.t}. *)

type input_feed = string -> int -> Value.t
(** [feed channel k] is sample [k] (1-based) of an external input. *)

val no_inputs : input_feed
val feed_of_list : (string * Value.t list) list -> input_feed

type t

val create : Network.t -> t
val network : t -> Network.t
val instance : t -> int -> Instance.t

val run_job :
  ?recorder:(Trace.action -> unit) ->
  ?inputs:input_feed ->
  t ->
  proc:int ->
  now:Rt_util.Rat.t ->
  unit
(** Runs the next job of process [proc].  Reads and writes are recorded
    through [recorder] (wrapped in [Job_start]/[Job_end]).
    @raise Invalid_argument if the process accesses a channel that is
    not attached to it. *)

val set_inputs : t -> input_feed -> unit
(** Binds the external input feed consulted by {!run_job_fast}. *)

val run_job_fast : t -> proc:int -> now:Rt_util.Rat.t -> unit
(** {!run_job} through a per-process context prepared once at
    {!create}: no recorder, inputs from {!set_inputs}, and no per-call
    allocation.  When access counting is enabled (see
    {!set_access_counting}), every channel access (read or write,
    internal or external) increments the counter reported by
    {!access_count}; callers that price accesses read the counter
    around the call. *)

val run_jobs_fast :
  t ->
  procs:int array ->
  now_idx:int array ->
  nows:Rt_util.Rat.t array ->
  count:int ->
  unit
(** [run_jobs_fast t ~procs ~now_idx ~nows ~count] runs
    {!run_job_fast} for [i < count] with [proc = procs.(i)] and
    [now = nows.(now_idx.(i))] — the tick engine's replay
    inner loop, hosted here so each job costs two loads and a call.
    Indices are {e unchecked}: callers must keep them in range. *)

val set_access_counting : t -> bool -> unit
(** Selects whether {!run_job_fast} counts channel accesses.  Off by
    default: the counting variant pays a store per access, so callers
    enable it only when the platform actually charges per access.  Its
    job contexts are prepared on the first [true], not at {!create}. *)

val access_count : t -> int
(** Total channel accesses performed through {!run_job_fast} with
    counting enabled, since {!create}/{!reset}. *)

val run_job_deferred :
  ?recorder:(Trace.action -> unit) ->
  ?inputs:input_feed ->
  t ->
  proc:int ->
  now:Rt_util.Rat.t ->
  unit ->
  unit
(** Like {!run_job}, but channel writes are buffered: the body runs
    immediately (reads observe the pre-job state), and the returned
    thunk publishes the writes in program order.  This is the
    read-at-start / write-at-completion access model of preemptive
    priority-scheduled implementations ([Runtime.Preemptive]). *)

val channel_history : t -> (string * Value.t list) list
(** Internal channels, sorted by name. *)

val output_history : t -> (string * Value.t list) list
(** External outputs, sorted by name. *)

val channel_snapshot : t -> (string * Channel.snapshot) list
val output_snapshot : t -> (string * Channel.snapshot) list
(** O(#channels) history captures that stay valid after the state is
    {!reset} and reused — see {!Channel.snapshot}. *)

val channel_state : t -> string -> Channel.t
(** Internal channel or external output recorder by name.
    @raise Not_found *)

val reset : t -> unit

val release_histories : t -> unit
(** Empties every channel and output recorder as {!reset} does, leaving
    the process states alone: the state stops referencing the values
    written so far, while snapshots taken before keep reading them. *)

(** Preemptive priority scheduling of the network's jobs: the classical
    settings FPPN is measured against.

    Jobs are released by the same event generators as the zero-delay
    interpreter and run against the same network state, but without the
    functional-priority/precedence machinery.  At every instant the
    [n_procs] first live jobs run, ordered by the policy's key, then by
    release order.

    - [Fixed Rate_monotonic] on one processor is the FMS case study's
      "original uniprocessor prototype" (Sec. V-B).  Since the
      network's functional priorities are aligned with the scheduling
      priorities, the FPPN implementation is functionally equivalent to
      it, "which we verified by testing".
    - [Edf] on several processors is the determinism counter-example
      (Sec. I): the interleaving, and therefore the data, depends on
      execution times.  Experiment E8 in [bench/main.ml] shows its
      channel histories changing across jitter seeds while the FPPN
      runtime's stay fixed.

    Data-access model: a job reads its inputs when it first gets a
    processor, and its output writes are published at completion
    (writes are buffered in between), the standard implicit
    communication model of the cited scheduling work. *)

type priority_assignment =
  | Rate_monotonic
      (** ascending period; ties broken by functional-priority rank,
          then by name *)
  | Explicit of (string * int) list
      (** smaller number = higher priority; unlisted processes get the
          lowest priority *)

type policy =
  | Edf  (** key: absolute deadline *)
  | Fixed of priority_assignment  (** key: the process's static priority *)

type config = {
  policy : policy;
  n_procs : int;  (** identical processors *)
  exec : Exec_time.t;
  wcet : Taskgraph.Derive.wcet_map;
      (** per-process execution budget handed to the [exec] model *)
  horizon : Rt_util.Rat.t;
  sporadic : (string * Rt_util.Rat.t list) list;
  inputs : Fppn.Netstate.input_feed;
}

val default_config :
  policy:policy ->
  n_procs:int ->
  wcet:Taskgraph.Derive.wcet_map ->
  horizon:Rt_util.Rat.t ->
  config
(** WCET execution times, no sporadic events, no external inputs. *)

type record = {
  process : string;
  k : int;
  released : Rt_util.Rat.t;
  started : Rt_util.Rat.t;
  finished : Rt_util.Rat.t;
  deadline : Rt_util.Rat.t;  (** released + d_p *)
  preemptions : int;
      (** times the job lost its processor after it started and before
          it completed *)
}

type result = {
  records : record list;  (** completion order *)
  channel_history : (string * Fppn.Value.t list) list;
  output_history : (string * Fppn.Value.t list) list;
  misses : int;
  max_response : Rt_util.Rat.t;
}

val run : Fppn.Network.t -> config -> result
(** @raise Invalid_argument if [n_procs < 1] or [horizon <= 0], or as
    [Fppn.Semantics.invocations] does on an invalid sporadic trace. *)

val signature : result -> (string * Fppn.Value.t list) list
(** Comparable with [Fppn.Semantics.signature] and [Engine.signature]. *)

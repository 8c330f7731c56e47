(** Mode-switched online policy for mixed-criticality FPPNs.

    Runs the LO schedule's static order; every [Hi] job is monitored
    against its optimistic budget [C_LO].  When a [Hi] job is still
    running at [start + C_LO], the frame degrades to HI mode:

    - [Lo] jobs not yet started in this frame are {e dropped} (recorded
      as skipped, their precedence obligations waived);
    - running jobs finish normally (run-to-completion) and [Hi] jobs
      continue under their conservative budgets [C_HI];
    - the next frame starts back in LO mode.

    Determinism caveat (inherent to mixed criticality): [Hi] outputs
    remain a function of inputs/stamps {e and the overrun pattern}; [Lo]
    outputs are best-effort and disappear in degraded frames. *)

type config = {
  exec : Runtime.Exec_time.t;
      (** samples the {e true} duration of each job against its
          criticality-dependent budget ([C_HI] for [Hi] processes, so a
          jitter model reaching 1.0 can trigger overruns) *)
  frames : int;
  sporadic : (string * Rt_util.Rat.t list) list;
  inputs : Fppn.Netstate.input_feed;
  n_procs : int;
}

val default_config : ?frames:int -> n_procs:int -> unit -> config

type result = {
  trace : Runtime.Exec_trace.t;
      (** dropped [Lo] jobs appear with [skipped = true] *)
  channel_history : (string * Fppn.Value.t list) list;
  output_history : (string * Fppn.Value.t list) list;
  mode_switches : (int * Rt_util.Rat.t) list;
      (** (frame, switch instant) for every degraded frame *)
  dropped_lo : int;
  hi_misses : int;  (** deadline misses of [Hi] jobs — must stay 0 *)
  lo_misses : int;  (** misses of [Lo] jobs that did execute *)
}

val run : Fppn.Network.t -> spec:Spec.t -> Dual_schedule.t -> config -> result
(** {!Runtime.Engine.run} on the LO schedule and a zero-overhead
    platform of [n_procs] processors, with a {!Runtime.Engine.monitor}
    attached and every job's WCET replaced by its criticality budget,
    on the engine's tick core: the grid holds the budgets, [C_LO]
    included.
    @raise Invalid_argument as {!Runtime.Engine.run}: [frames <= 0], a
    processor-count mismatch, sporadic events of an unknown or periodic
    process or violating their generator's [(m, T)], or budgets and
    durations that no tick grid holds (a negative [C_LO], or
    denominators past the grid's cap), refused with the reason before
    any job runs; and when a [Hi] process of [spec] has
    [C_HI < C_LO], which {!Dual_schedule.build} reports as
    [Inverted_budgets]. *)

val signature : result -> (string * Fppn.Value.t list) list

(** Execution-time models.

    The static schedule is computed from WCETs; at run time jobs may
    finish earlier.  Prop. 4.1 states the static-order policy stays
    correct for {e any} execution times up to the WCET — the jittered
    model exercises exactly that robustness claim. *)

type t

val constant : t
(** Every job takes exactly its WCET. *)

val uniform : seed:int -> min_fraction:float -> t
(** Each job's duration is uniform in
    [\[min_fraction·C_i, C_i\]], drawn from a deterministic PRNG
    (quantized to 1/1000 of the WCET so durations remain small
    rationals).
    @raise Invalid_argument unless [0 <= min_fraction <= 1]. *)

val scaled : float -> t
(** Every job takes [fraction·C_i] (quantized to 1/1000); useful for
    granularity sweeps.  [fraction] may exceed 1 to model WCET
    under-estimation (measurement-based WCETs, Sec. V). *)

val profile : (string -> Rt_util.Rat.t) -> t
(** Fixed duration per process name.  The function must be pure: the
    engine samples it once per job at set-up ({!durations}) and, when
    it raises for a job, once more per execution; an impure profile
    would make a run depend on when it is sampled. *)

val sample : t -> Taskgraph.Job.t -> Rt_util.Rat.t
(** Duration of one job instance.  Stateful for {!uniform}. *)

(** How a compiled engine can obtain durations without sampling
    rationals in its hot loop. *)
type durations =
  | Fixed of Rt_util.Rat.t array
      (** deterministic per job: [durations.(job)] is the exact value
          {!sample} returns for that job on every invocation
          ({!constant}, and {!scaled} and {!profile} when no job's
          sample raises) *)
  | Extras of Rt_util.Rat.t list
      (** durations must still be drawn per execution, but every draw
          that returns lands on a {!Rt_util.Timebase} grid that covers
          these extra rationals: {!uniform}, or {!scaled} and {!profile}
          when some job's sample raises, whose extras are the other
          jobs' samples and whose run raises what {!sample} raises when
          that job executes *)

val durations : t -> jobs:Taskgraph.Job.t array -> durations
(** Compiles the model against a concrete job set; [Fixed] durations
    also make whole-frame replay sound, since the schedule of a frame
    then depends only on the frame's sporadic stamps.
    @raise Invalid_argument for {!uniform} over a job whose WCET has a
    denominator above [max_int/1000]: its draws fit no grid. *)

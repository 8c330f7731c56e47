(** Multi-application co-scheduling on [M] shared processors.

    The paper compiles one FPPN at a time; real platforms (and ROADMAP
    item 2) run several applications side by side.  This module
    generalizes the list scheduler's data model from a single task graph
    to an indexed application set, following the F-MHEFT family of
    multi-application HEFT schedulers:

    - {e fair} — one common ready queue over the disjoint union of all
      task graphs, ordered by (application priority, per-application
      schedule rank).  Applications interleave on all [M] processors;
      a higher-priority application's ready jobs always dispatch first,
      equal-priority applications interleave by rank.
    - {e slots} — each application is granted a preallocated processor
      budget (its Prop. 3.1 lower bound, subject to capacity, at least
      one; spare processors are dealt out round-robin in priority order
      so the allocation is work-conserving), scheduled alone on its
      slots, and never shares a processor with another application.
      Stronger isolation, potentially longer makespans.

    Both variants reuse {!List_scheduler.schedule} as the underlying
    machinery, so co-scheduling a {e single} application is bit-identical
    to scheduling it directly — the differential property
    [test/test_cosched.ml] locks in. *)

type app = {
  app_name : string;
  app_priority : int;  (** smaller = more important; ties break by position *)
  graph : Taskgraph.Graph.t;
}

type variant = Fair | Slots

val variant_to_string : variant -> string
val variant_of_string : string -> variant option

type app_report = {
  name : string;
  priority : int;
  schedule : Static_schedule.t;
      (** this application's jobs (local ids) on global processor ids *)
  makespan : Rt_util.Rat.t;
  feasible : bool;  (** no deadline violation for this application *)
  utilization : Rt_util.Rat.t;
      (** precedence-aware load of Prop. 3.1, from the application's
          {!Taskgraph.Analysis} *)
  lower_bound : int;
      (** {!Taskgraph.Analysis.lower_bound}: [⌈Load⌉], or [max_int] if a
          job cannot fit its ASAP/ALAP window *)
  slots : int list;
      (** processors reserved for this application ({!Slots} variant;
          empty under {!Fair}) *)
}

type t = {
  variant : variant;
  heuristic : Priority.heuristic;
  n_procs : int;
  union : Taskgraph.Graph.t;
      (** disjoint union of all task graphs, process names prefixed with
          ["<app>/"] *)
  owner : (int * int) array;
      (** union job id -> (application index, local job id) *)
  combined : Static_schedule.t;  (** all applications on the union graph *)
  reports : app_report list;  (** one per application, in input order *)
  feasible : bool;  (** every application meets its deadlines *)
  makespan : Rt_util.Rat.t;  (** of the combined schedule *)
}

val schedule_with :
  ?heuristic:Priority.heuristic ->
  variant:variant ->
  n_procs:int ->
  app list ->
  t
(** Co-schedules the applications with one schedule-priority heuristic
    (default {!Priority.Alap_edf}).  Arrival, precedence and mutual
    exclusion hold by construction; only deadlines can be violated
    (reported per application).  Under {!Slots}, applications
    additionally never share a processor.
    @raise Invalid_argument on an empty application list, an empty task
    graph, [n_procs <= 0], or (under {!Slots}) more applications than
    processors. *)

type attempt = { heuristic : Priority.heuristic; result : t }

val auto :
  ?pool:Rt_util.Pool.t ->
  ?heuristics:Priority.heuristic list ->
  variant:variant ->
  n_procs:int ->
  app list ->
  attempt list * attempt option
(** Mirror of {!List_scheduler.auto}: tries every heuristic (default
    {!Priority.all}) and chooses the first whose co-schedule is feasible
    for {e every} application.  [pool] evaluates heuristics concurrently;
    attempts keep heuristic order, so the result is identical to the
    sequential one.  Each application's Prop. 3.1 analysis (its report's
    load and lower bound, the {!Slots} requests) is computed once, before
    the attempts, which all read it. *)

type admission =
  | Admitted of t  (** co-schedule including the candidate *)
  | Rejected of { app : string; reason : string }

val admit :
  ?pool:Rt_util.Pool.t ->
  ?heuristics:Priority.heuristic list ->
  ?variant:variant ->
  n_procs:int ->
  admitted:app list ->
  app ->
  admission
(** Admission control for a multi-tenant platform: can [candidate] join
    the already-admitted set without breaking anyone?  Checks, in order:
    a free slot exists ({!Slots} only), the union's Prop. 3.1 load bound
    fits in [n_procs] ({!Taskgraph.Analysis.lower_bound}), and some heuristic
    yields a co-schedule in which every application — old and new — meets
    its deadlines.  Default variant is {!Fair}. *)

val sections : t -> Schedule_io.section list
(** Per-application sections (name, priority, slots, schedule) for
    {!Schedule_io.sections_to_json}. *)

val to_json : t -> string
(** The co-schedule as a [fppn-cosched/1] JSON document (see
    {!Schedule_io.sections_to_json}). *)

val save : string -> t -> unit
(** [save path t] writes {!to_json}. *)

val pp : Format.formatter -> t -> unit
(** Per-application accounting table plus combined verdict. *)

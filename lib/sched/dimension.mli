(** Processor dimensioning: how many cores does a task graph need?

    Combines the necessary condition of Prop. 3.1 (a lower bound) with
    the list scheduler (a constructive upper bound).  Used by the FFT
    experiment, where the paper's answer is "one is not enough, two
    suffice". *)

type verdict = {
  lower_bound : int;
      (** [⌈Load⌉], or [max_int] if some job cannot fit its ASAP/ALAP
          window (no processor count can help) *)
  found : (int * List_scheduler.attempt) option;
      (** smallest processor count (within the searched range) for which
          some heuristic produced a feasible schedule *)
  searched_up_to : int;
}

val min_processors :
  ?heuristics:Priority.heuristic list ->
  ?max_procs:int ->
  ?analysis:Taskgraph.Analysis.t ->
  Taskgraph.Graph.t ->
  verdict
(** Searches [M = lower_bound, …, max_procs] (default 16), where
    [lower_bound] is {!Taskgraph.Analysis.lower_bound} of [analysis],
    the graph's own analysis (computed here when not given).  List
    scheduling is not optimal, so [found = None] does not prove
    infeasibility, and the gap between [lower_bound] and the found [M]
    measures the heuristic's quality. *)

val pp : Format.formatter -> verdict -> unit

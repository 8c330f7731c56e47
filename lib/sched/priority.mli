(** Schedule-priority ([SP]) heuristics for list scheduling
    (Sec. III-B).

    [SP] is a total order on jobs — earlier means higher priority.  It
    must not be confused with the functional priority [FP], which
    defines the precedence edges; [SP] only steers the list scheduler's
    choices. *)

type heuristic =
  | Alap_edf
      (** EDF adjusted for precedences: ascending ALAP completion time
          [D'_i] — the paper's primary recommendation *)
  | B_level  (** descending longest-path-to-sink (classic list scheduling) *)
  | Deadline_monotonic  (** ascending relative deadline [D_i − A_i] *)
  | Edf_nominal  (** ascending nominal absolute deadline [D_i] *)
  | Fifo_arrival  (** ascending arrival time [A_i] *)

val all : heuristic list
val to_string : heuristic -> string
val of_string : string -> heuristic option
val pp : Format.formatter -> heuristic -> unit

val rank : Taskgraph.Graph.t -> heuristic -> int array
(** [rank.(job) = position] in the priority order: 0 is the highest
    priority.  All heuristics break ties by job id, so the order is
    total and deterministic, and the result is a permutation of
    [0..n-1], as {!List_scheduler.schedule} requires.

    The keys are computed on the graph's integer tick view
    ({!Taskgraph.Tick_graph}), compiled per call: ALAP and b-level over
    the reverse topological order ({!Taskgraph.Analysis.alap} and
    {!Taskgraph.Analysis.b_level}, the recurrences Prop. 3.1's analysis
    uses), then [D_i − A_i], [D_i] or [A_i].  Ranking is
    [O(n log n + E)].
    @raise Rt_util.Rat.Overflow when the graph has no integer grid
    ({!Taskgraph.Tick_graph.compile}), or, for [Deadline_monotonic],
    when some [D_i − A_i] in ticks does not fit in an [int]. *)

val order : Taskgraph.Graph.t -> heuristic -> int array
(** Job ids sorted from highest to lowest priority (the inverse
    permutation of {!rank}).  @raise Rt_util.Rat.Overflow as {!rank}. *)

val rank_ticks : Taskgraph.Tick_graph.t -> heuristic -> int array
(** {!rank} on an already compiled view, which it only reads: one view
    serves every heuristic, concurrently too. *)

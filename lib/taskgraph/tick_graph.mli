(** A task graph compiled once onto an integer tick grid: the read-only
    input that {!Analysis} analyses (Prop. 3.1), and that the list
    scheduler of [lib/sched] ([Sched.Priority], [Sched.List_scheduler])
    ranks and schedules.  It lives with the task graph because it reads
    nothing but {!Graph}, {!Job} and {!Rt_util.Rat}.

    Every arrival, deadline and WCET [r] of the graph is held as the
    integer [r·D], where [D] is the least common denominator of all of
    them.  [r ↦ r·D] is strictly increasing and commutes with [+], [−],
    [min] and [max], so every order and sum the list scheduler and its
    heuristics compute on ticks is the one they would compute on
    {!Rt_util.Rat.t}, and a tick value [t] maps back as [t/D].

    The grid only has to hold the values the scheduler and the analysis
    reach: [D], the ticks of every time, and the horizon
    [max(0, max A_i) + Σ C_i], which bounds every start and finish of a
    list schedule and every ASAP time, must fit in an OCaml [int].  This
    is wider than {!Rt_util.Timebase}'s 2^55 cap, which leaves the
    engine room to sum along many frames.  Later sums stay below the
    horizon and need no check. *)

type t = private {
  den : int;  (** [D]: ticks per model-time unit *)
  arrival : int array;  (** [A_i·D] *)
  deadline : int array;  (** [D_i·D] *)
  wcet : int array;  (** [C_i·D] *)
  succ_off : int array;
      (** [n + 1] offsets: the successors of job [i] are
          [succ.(succ_off.(i))] to [succ.(succ_off.(i + 1) - 1)] *)
  succ : int array;  (** successors, each job's in {!Graph.succs} order *)
  n_preds : int array;  (** predecessor count of every job *)
  topo : int array;  (** {!Graph.topo_order} *)
}

val compile : Graph.t -> t
(** Linear in jobs and edges, plus a gcd for each time whose
    denominator does not yet divide the running [D].
    @raise Rt_util.Rat.Overflow when [D], a time's ticks, the horizon,
    or the lowest ALAP bound [min(0, min D_i) − Σ C_i] does not fit
    in an [int]. *)

val n_jobs : t -> int

val to_rat : t -> int -> Rt_util.Rat.t
(** [to_rat t ticks] is [ticks/D], in normal form. *)

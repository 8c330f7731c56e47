(** Multiprocessor periodic resource (MPR) interfaces for tenant
    admission, after Easwaran/Shin/Lee and the EVA-rt-Engine analysis
    line: a component's processor demand is abstracted into the triple
    [Γ = (Π, Θ, m')] — every period [Π] the platform supplies [Θ]
    units of execution with concurrency at most [m'].

    All arithmetic is exact ({!Rt_util.Rat}), in milliseconds like the
    rest of the repo.  A tenant's interface is generated from the
    demand-bound functions of its server-transformed process set
    (sporadic processes folded exactly as {!Taskgraph.Derive} folds
    them), checked with a global-EDF demand test against the
    interface's linear supply bound, and composed with the other
    resident tenants' interfaces onto the [M] shared processors. *)

type task = {
  t_name : string;
  wcet : Rt_util.Rat.t;  (** [C > 0]; servers carry [burst * C] *)
  period : Rt_util.Rat.t;  (** [T > 0]; servers carry [T'] *)
  deadline : Rt_util.Rat.t;  (** relative, clamped to [min d T] *)
}

val taskset_of_network :
  wcet:Taskgraph.Derive.wcet_map ->
  Fppn.Network.t ->
  Taskgraph.Derive.t ->
  task list
(** One implicit- or constrained-deadline task per process.  Periodic
    processes keep their own [(C·burst, T, min d T)]; sporadic
    processes are folded to their Sec. III-A server
    ([T' = ]{!Taskgraph.Derive.server_info.server_period},
    [d' = d − T'], demand [burst·C]), exactly mirroring the derivation
    the engine executes. *)

val utilization : task list -> Rt_util.Rat.t
(** [Σ C_i / T_i]. *)

val dbf : task -> Rt_util.Rat.t -> Rt_util.Rat.t
(** EDF demand bound of one task over any interval of length [t]:
    [max 0 (⌊(t − d)/T⌋ + 1) · C]. *)

type t = {
  period : Rt_util.Rat.t;  (** [Π > 0] *)
  budget : Rt_util.Rat.t;  (** [Θ], with [0 <= Θ <= m'·Π] *)
  concurrency : int;  (** [m' >= 1] *)
}

val bandwidth : t -> Rt_util.Rat.t
(** [Θ / Π] — the long-run fraction of the platform this interface
    reserves. *)

val sbf : t -> Rt_util.Rat.t -> Rt_util.Rat.t
(** Linear supply bound of the interface over an interval of length
    [t]: [max 0 ((Θ/Π) · (t − 2·(Π − Θ/m')))] — the standard sound
    linearization of the MPR supply, monotone in [Θ]. *)

val is_schedulable_edf : task list -> t -> bool
(** Global-EDF demand test: at every absolute-deadline checkpoint [t]
    up to the task set's hyperperiod,
    [Σ_i dbf_i(t) + m'·C_max <= sbf(t)] (the [m'·C_max] term is the
    BCL-style carry-in envelope), and the long-run demand slope fits
    the supply slope ([Σ C_i/T_i <= Θ/Π]).  The empty task set is
    schedulable by anything.  The slope test runs first; the checkpoint
    tests stop at the first that fails. *)

val generate_interface :
  ?period:Rt_util.Rat.t ->
  ?step:int ->
  ?max_concurrency:int ->
  task list ->
  t option
(** Smallest interface (first in concurrency, then in budget) under
    which {!is_schedulable_edf} holds.  [period] defaults to a tenth
    of the task set's smallest timing parameter (so the supply
    blackout [2(Π − Θ/m')] stays well inside every deadline); budgets
    are searched on the grid [Θ = k·Π/step] (default [step = 64],
    binary search — sound because {!sbf} is monotone in [Θ]);
    concurrency ranges from [⌈utilization⌉] to [max_concurrency]
    (default: the task count).  [None] when no interface within those
    bounds passes — the machine-readable "this tenant fits no MPR
    contract" verdict.  The result is independent of the platform
    size, which is what makes admission monotone in [M].

    Nothing of {!is_schedulable_edf}'s test but the supply depends on
    the interface, so the task set's part is computed once per call:
    the hyperperiod, its sorted distinct checkpoints, the demand
    [Σ_i dbf_i(t)] at each checkpoint [t], the utilization and [C_max];
    the carry [m'·C_max] once per concurrency.  Each probe of the budget
    search then evaluates only {!sbf} at the checkpoints.  The
    arithmetic is exact, so the interface is the one a probe that
    rebuilt everything would find. *)

type overflow =
  | Utilization of { total : Rt_util.Rat.t; procs : int }
      (** [Σ Θ_i/Π_i > M] *)
  | Concurrency of { required : int; procs : int }
      (** [max m'_i > M] *)

val compose : t list -> procs:int -> (unit, overflow) result
(** Can this set of interfaces be hosted on [M] processors?  Each
    interface is viewed as its [m'] periodic supply tasks of
    utilization [Θ/(m'Π)] ([<= 1] by construction); the set fits iff
    the total bandwidth fits the platform ([Σ Θ_i/Π_i <= M]) and no
    interface needs more parallelism than the platform has
    ([max m'_i <= M]).  Monotone in [M] and antitone in the interface
    set — retiring a tenant can only help the rest. *)

val compose_totals :
  total:Rt_util.Rat.t -> required:int -> procs:int -> (unit, overflow) result
(** {!compose} on a set summarized by its totals: [total = Σ Θ_i/Π_i]
    and [required = max m'_i] ([0] for the empty set).  A host that
    keeps the exact sum as its set changes composes in O(1).
    @raise Invalid_argument if [procs <= 0]. *)

val to_json : t -> Rt_util.Json.t
(** [{"period_ms":p,"budget_ms":b,"concurrency":m,"bandwidth":w}] with
    exact values rendered as strings and [*_ms] floats. *)

val pp : Format.formatter -> t -> unit

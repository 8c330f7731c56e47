(** The avionics case study of Sec. V-B: a subsystem of a Flight
    Management System (Fig. 7) computing the best computed position
    (BCP) and predicting aircraft performance from sensor data and
    sporadic pilot configuration commands.

    Twelve processes: five periodic — SensorInput (200 ms), HighFreqBCP
    (200 ms), LowFreqBCP (5000 ms), MagnDeclin (1600 ms), Performance
    (1000 ms) — and seven sporadic configuration processes: AnemoConfig,
    GPSConfig, IRSConfig, DopplerConfig, BCPConfig (2 per 200 ms each),
    MagnDeclinConfig (5 per 1600 ms), PerformanceConfig (5 per 1000 ms).

    As in the paper, sporadic processes have {e lower} functional
    priority than their periodic users, and the relative priority of the
    periodic processes is rate-monotonic.

    The original hyperperiod is 40 s; {!reduced} applies the paper's
    workaround — MagnDeclin's period shrinks from 1600 ms to 400 ms and
    its main body executes once per four invocations — giving a 10 s
    hyperperiod and a task graph of 812 jobs.

    The paper does not publish per-process WCETs (they were profiled);
    {!wcet} is a synthetic profile chosen so the derived task-graph load
    lands at the reported ≈ 0.23.  Sporadic deadlines, also unpublished,
    are set to [2·T_p] so that the server-deadline correction
    [d_p − T_u(p)] stays positive with the plain user period. *)

val original : unit -> Fppn.Network.t
(** MagnDeclin at 1600 ms (40 s hyperperiod). *)

val reduced : unit -> Fppn.Network.t
(** MagnDeclin at 400 ms, main body once per 4 invocations (10 s
    hyperperiod, 812 jobs — the configuration actually evaluated). *)

val wcet : Taskgraph.Derive.wcet_map

val sporadic_processes : string list
(** Names of the seven configuration processes. *)

val random_config_traces :
  seed:int -> horizon:Rt_util.Rat.t -> density:float -> Fppn.Network.t ->
  (string * Rt_util.Rat.t list) list
(** Random pilot-command traces for every sporadic process, respecting
    each generator's [(m, T)] constraint. *)

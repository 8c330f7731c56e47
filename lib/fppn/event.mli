(** Event generators (Sec. II-A).

    Both kinds are parameterized by the burst size [m_e] and the period
    [T_e].  A multi-periodic generator produces a burst of [m_e]
    simultaneous events at times [0, T_e, 2·T_e, …].  A sporadic
    generator produces at most [m_e] events in any half-closed interval
    of length [T_e].  Every generator carries the relative deadline
    [d_e] for the jobs it invokes. *)

type kind = Periodic | Sporadic

type t = private {
  kind : kind;
  burst : int;           (** [m_e >= 1] *)
  period : Rt_util.Rat.t;(** [T_e > 0]; minimum inter-burst separation for sporadic *)
  deadline : Rt_util.Rat.t; (** [d_e > 0], relative *)
}

val periodic : ?burst:int -> period:Rt_util.Rat.t -> deadline:Rt_util.Rat.t -> unit -> t
(** @raise Invalid_argument on non-positive period/deadline or burst < 1. *)

val sporadic : ?burst:int -> min_period:Rt_util.Rat.t -> deadline:Rt_util.Rat.t -> unit -> t

val is_sporadic : t -> bool

val pp : Format.formatter -> t -> unit
(** E.g. ["periodic 200ms"] or ["sporadic 2 per 700ms"] as in Fig. 1. *)

val periodic_invocations : t -> horizon:Rt_util.Rat.t -> Rt_util.Rat.t list
(** Invocation time stamps in [\[0, horizon)], each burst expanded to
    [m_e] equal stamps, ascending.
    @raise Invalid_argument on a sporadic generator. *)

val count_periodic_jobs : t -> horizon:Rt_util.Rat.t -> int
(** [m_e · ⌈horizon / T_e⌉] for horizon a multiple of the period. *)

val is_valid_sporadic_trace : t -> Rt_util.Rat.t list -> bool
(** Checks the sporadic constraint: stamps ascending, non-negative, and
    at most [m_e] of them in any half-closed window [(t, t+T_e]].
    Always true of the empty trace.  Periodic generators accept exactly
    their own stamp sequence prefix.  O(n) in the trace length: on an
    ascending trace it suffices that [s_i − s_(i−m_e) >= T_e] for every
    [i >= m_e]. *)

val random_sporadic_trace :
  t -> Rt_util.Prng.t -> horizon:Rt_util.Rat.t -> density:float -> Rt_util.Rat.t list
(** A random trace over [\[0, horizon)] satisfying the sporadic
    constraint.  [density] in [\[0,1\]] scales how close the trace runs
    to the maximal rate ([m_e] events per window). Stamps are drawn on a
    millisecond grid so they stay small rationals. *)

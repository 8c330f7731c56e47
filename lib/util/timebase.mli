(** Compiled integer timelines for the simulation hot path.

    The discrete-event engine spends its inner loop comparing and adding
    model times.  All times reachable in one run are rationals whose
    denominators divide a common denominator [D] computable at setup
    time (periods, phases, deadlines, WCETs, overheads, event stamps,
    and the quantized execution-time samples derived from them).  A
    timebase maps every such rational [r] to the integer tick count
    [r·D] exactly, so the engine can run on machine integers and
    reconstruct bit-identical {!Rat.t} values only when materialising
    trace records.

    Construction is total: {!create} returns [None] whenever the common
    denominator exceeds a magnitude cap of 2^55, and {!ticks} raises
    for a value whose ticks exceed it; the cap leaves room for summing
    many tick values in an [int].  The engine refuses a run that meets
    either, naming the reason, before it executes any job. *)

type t

exception Inexact
(** Raised by {!ticks} on a rational whose denominator does not divide
    the compiled common denominator.  Never raised for values built
    from the rationals passed to {!create} under [+], [-], [min],
    [max], or multiplication by integers. *)

val create : Rat.t list -> t option
(** [create times] compiles the least common denominator of [times].
    Returns [None] if that LCM overflows or exceeds the 2^55 cap. *)

val den : t -> int
(** The common denominator: ticks per model-time unit. *)

val ticks : t -> Rat.t -> int
(** Exact conversion to ticks.
    @raise Inexact if the denominator is not covered.
    @raise Rat.Overflow if the ticks exceed the 2^55 cap. *)

val ticks_opt : t -> Rat.t -> int option
(** {!ticks} returning [None] instead of raising. *)

val of_ticks : t -> int -> Rat.t
(** Exact reconstruction; [of_ticks t (ticks t r) = r] (structurally —
    {!Rat.t} normal forms are unique). *)

val representable : t -> Rat.t -> bool
(** Whether {!ticks} would succeed. *)

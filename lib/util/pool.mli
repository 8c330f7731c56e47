(** Fixed-size domain pool with order-preserving parallel combinators
    over work-stealing index ranges.

    The pool owns [jobs - 1] worker domains (the caller is the
    [jobs]-th participant).  Each combinator call splits its index
    space into per-worker ranges claimed from the front in adaptively
    sized blocks (an eighth of the remainder, never below the grain);
    an idle worker steals the upper half of the fullest remaining
    range (steal-half).  Ranges migrate atomically between exactly two
    slots, so every index runs exactly once, and results are keyed by
    input index — every combinator is observably deterministic
    regardless of worker count, stealing or interleaving.  [jobs = 1]
    never spawns a domain and executes the exact sequential code path
    (a plain left-to-right loop), so callers are bit-for-bit compatible
    with their pre-pool behavior.

    Blocked callers {e help}: while waiting for their own call they
    drain other tasks from the shared task queue, so nested
    [parallel_map] calls from inside a worker cannot deadlock. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [max 0 (jobs - 1)] worker domains.  [jobs]
    is clamped to at least 1.  Shut the pool down with {!shutdown} (or
    use {!with_pool}) — worker domains are only reclaimed then. *)

val jobs : t -> int
(** Parallelism degree the pool was created with (including the
    calling domain). *)

val self_id : unit -> int
(** Stable id of the calling worker domain: [0] for the domain that
    created the pool (and for any domain that never entered a pool),
    [1 .. jobs-1] for spawned workers, in spawn order.  Ids are
    domain-local, so tasks can attribute work (trace lanes, per-case
    timings) to the domain that actually ran them without threading
    the pool handle through. *)

val pending : t -> int
(** Number of tasks currently enqueued and not yet picked up by any
    worker (a point-in-time queue-depth reading, taken under the pool
    lock). *)

val steals : unit -> int
(** Cumulative successful range steals across all pools in this
    process (monotone).  Observability layers sample a delta around a
    region; a reading is exact only while no combinator call is in
    flight. *)

val default_jobs : unit -> int
(** Alias of {!recommended_domains}. *)

val recommended_domains : unit -> int
(** The largest worker count this host can run without
    oversubscription: [Domain.recommended_domain_count ()] clamped to
    the container's cgroup CPU quota (both v1 [cpu.cfs_quota_us] /
    [cpu.cfs_period_us] and v2 [cpu.max] layouts are probed; an absent
    or unlimited quota leaves the count unclamped).  Memoized. *)

val clamp_jobs : int -> int
(** [clamp_jobs requested] caps a requested parallelism degree to
    [recommended_domains ()] (and raises it to at least 1).  CLI tools
    apply it to their [--jobs] so a generous default cannot slow a
    narrow machine down; the library combinators accept any [jobs]
    unclamped. *)

val shutdown : t -> unit
(** Joins all worker domains.  Idempotent.  Submitting work after
    shutdown raises [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down
    afterwards, also on exceptions. *)

val parallel_map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f arr] is [Array.map f arr] with the
    applications distributed over the pool's work-stealing ranges.
    [chunk] sets the minimum claim grain (default: input size over
    [4 * jobs], at least 1); actual claims adapt down from an eighth
    of a range's remainder to that grain.  Results are positioned by
    input index, so the output is identical to the sequential map for
    any deterministic [f].

    If one or more applications raise, the exception raised for the
    {e smallest} input index is re-raised in the caller (after all
    in-flight blocks have drained): every index below the smallest
    failure seen so far still runs, whichever unit reaches it last, and
    the indices past it are abandoned.
    With [jobs = 1] the applications run left to right in the calling
    domain and the first exception propagates immediately. *)

val map_list : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** {!parallel_map} over a list, preserving order. *)

val parallel_for : ?chunk:int -> t -> int -> (int -> unit) -> unit
(** [parallel_for pool n body] runs [body i] for [i = 0 .. n-1] on the
    pool.  [body] must only perform index-disjoint writes (e.g. into
    cell [i] of a preallocated array) for the result to be
    deterministic.  Exceptions behave as in {!parallel_map}. *)

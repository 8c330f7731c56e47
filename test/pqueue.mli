(** Imperative binary-heap priority queue, {e stable}: elements that
    compare equal under [cmp] pop in insertion order (FIFO).

    The event and ready queues of the rational oracles: the exact
    interpreter [Exec_rat] and test_sched's rational list scheduler.
    Stability keeps those loops deterministic when distinct payloads
    share a key.  The library's own queues are [Rt_util.Iheap]. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** Min-queue under [cmp]: {!pop} returns the smallest element,
    breaking [cmp] ties by insertion order. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
val pop : 'a t -> 'a option

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty queue. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Elements in unspecified order; the queue is unchanged. *)

val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t

val drain : 'a t -> 'a list
(** Pops everything: the elements in ascending [cmp] order. *)

(** Imperative binary-heap priority queue, {e stable}: elements that
    compare equal under [cmp] pop in insertion order (FIFO).

    Backbone of the discrete-event simulators (runtime engine, timed
    automata) and of the list scheduler's event loop; stability keeps
    those loops deterministic when distinct payloads share a key, which
    the differential fuzzing oracle relies on. *)

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

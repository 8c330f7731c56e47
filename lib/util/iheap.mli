(** Min-heap of [(int key, int payload)] pairs in two parallel flat
    arrays — the allocation-free event queue of the compiled tick
    engine, and the ready queue of every topological sort.

    It is neither polymorphic nor stable: callers either drain every
    equal-key element before acting (as the tick engine's same-instant
    batching does), so same-key pop order is immaterial, or push each
    key once (a topological sort keyed by node index).

    Pushes and pops allocate only when the backing arrays double. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty heap; [capacity] presizes the backing arrays. *)

val length : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** Empties the heap, keeping its capacity. *)

val push : t -> key:int -> pay:int -> unit

val top_key : t -> int
(** Smallest key.  @raise Invalid_argument when empty. *)

val top_pay : t -> int
(** Payload pushed with the smallest key; ties yield an arbitrary
    element among the smallest.  @raise Invalid_argument when empty. *)

val drop : t -> unit
(** Removes the top element.  @raise Invalid_argument when empty. *)

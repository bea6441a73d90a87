(** Array-backed binary min-heap keyed by [(time, seq)].

    The event engine needs a stable priority queue: two events scheduled for
    the same instant must fire in scheduling order, so the key is the pair of
    the event time and a monotonically increasing sequence number.

    The heap arrays hold only ints — each entry's key and the index of its
    payload's slot in a separate slot table — so sifting moves no pointer.
    {!push} writes the payload into a free slot once and a pop clears it
    once; neither allocates once the arrays have grown to the peak queue
    length. *)

type 'a t

(** [create ~dummy] is an empty heap. [dummy] fills vacated payload slots,
    so a popped payload is never kept reachable by the heap. *)
val create : dummy:'a -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push heap ~time ~seq payload] inserts an element. *)
val push : 'a t -> time:int -> seq:int -> 'a -> unit

(** [pop_min heap] removes and returns the smallest element as
    [(time, seq, payload)], or [None] when the heap is empty. *)
val pop_min : 'a t -> (int * int * 'a) option

(** [pop_into heap f] removes the minimum element and applies
    [f time payload] — {!pop_min} without the per-event option/tuple, for
    the event-loop hot path. The heap is restructured before [f] runs, so
    [f] may {!push}. Returns [false] on an empty heap ([f] not called). *)
val pop_into : 'a t -> (int -> 'a -> unit) -> bool

(** [min_time heap] is the time of the minimum element. Raises
    [Invalid_argument] on an empty heap. *)
val min_time : 'a t -> int

(** [min_seq heap] is the sequence number of the minimum element: with
    {!min_time}, the key that orders the roots of two heaps. Raises
    [Invalid_argument] on an empty heap. *)
val min_seq : 'a t -> int

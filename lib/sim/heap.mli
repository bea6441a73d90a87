(** Array-backed binary min-heap keyed by [(time, seq)].

    The event engine needs a stable priority queue: two events scheduled for
    the same instant must fire in scheduling order, so the key is the pair of
    the event time and a monotonically increasing sequence number.

    The heap arrays hold only ints — each entry's key and the index of its
    payload's slot in a separate slot table — so sifting moves no pointer.
    {!push} writes the payload into a free slot once and a pop or {!remove}
    clears it once; none of them allocates once the arrays have grown to the
    peak queue length. The slot {!push} returns names the entry until it
    leaves the heap, which is what lets {!remove} take it out early. *)

type 'a t

(** [create ~dummy] is an empty heap. [dummy] fills vacated payload slots,
    so a removed payload is never kept reachable by the heap. *)
val create : dummy:'a -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push heap ~time ~seq payload] inserts an element and returns the slot
    that holds it. The slot is reused once the element leaves the heap. *)
val push : 'a t -> time:int -> seq:int -> 'a -> int

(** [remove heap ~slot ~seq] removes the element in [slot] if its key's
    sequence number is [seq], and says whether it did. With distinct
    sequence numbers, a [(slot, seq)] pair whose element already left the
    heap never removes another element, even after [slot] was reused. *)
val remove : 'a t -> slot:int -> seq:int -> bool

(** [pop_min heap] removes and returns the smallest element as
    [(time, seq, payload)], or [None] when the heap is empty. *)
val pop_min : 'a t -> (int * int * 'a) option

(** [pop_into heap f] removes the minimum element and applies
    [f time payload] — {!pop_min} without the per-event option/tuple, for
    the event-loop hot path. The heap is restructured before [f] runs, so
    [f] may {!push} or {!remove}. Returns [false] on an empty heap ([f] not
    called). *)
val pop_into : 'a t -> (int -> 'a -> unit) -> bool

(** [min_time heap] is the time of the minimum element. Raises
    [Invalid_argument] on an empty heap. *)
val min_time : 'a t -> int

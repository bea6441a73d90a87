(** Id-indexed slot ring: per-request state for request/response layers
    (retry timers, reply continuations, send timestamps) kept in slots that
    are built once and reused, instead of a hash table entry and fresh
    closures per request.

    A slot lives at index [id land (width - 1)]. Ids are expected to be
    dense, as sequential request numbers are: the ring doubles whenever the
    index of a new id is still occupied, so it settles at the width of the
    window of occupied ids. Past a fixed width (2{^14} slots) a colliding
    occupant is moved to a side table instead, so a slot that is never
    freed cannot make the ring span every later id. Whether a slot is
    occupied, and by which id, is the owner's state, read through
    [occupied] and [id_of]. *)

type ('o, 'a) t

(** [create ~make ~occupied ~id_of] is an empty ring; [make owner] builds a
    free slot whenever the ring fills, widens or replaces a slot. *)
val create :
  make:('o -> 'a) -> occupied:('a -> bool) -> id_of:('a -> int) -> ('o, 'a) t

(** [mem t ~id]: a slot of the ring is occupied by [id]. *)
val mem : ('o, 'a) t -> id:int -> bool

(** [get t ~id] is the slot occupied by [id]. Raises [Invalid_argument]
    unless [mem t ~id]. *)
val get : ('o, 'a) t -> id:int -> 'a

(** [claim t owner ~id] is the free slot [id] maps to, widening the ring
    until that slot is free. The caller marks it occupied. *)
val claim : ('o, 'a) t -> 'o -> id:int -> 'a

(** [renew t owner ~id] forgets [id]'s slot: the slot stays valid for
    whoever still references it (a queued timer continuation, say), but it
    is no longer found through the ring, and the next {!claim} of [id]
    gets a fresh slot. *)
val renew : ('o, 'a) t -> 'o -> id:int -> unit

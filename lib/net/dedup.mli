(** Server-side duplicate suppression.

    Retransmissions and fabric-duplicated frames both deliver the same
    request (same source, same request id) more than once; a server that
    applies non-idempotent operations must suppress the replays. The
    window is a bounded FIFO of [(src, id)] keys — oldest keys are
    evicted once [capacity] distinct keys are tracked, bounding memory
    for arbitrarily long runs (an evicted key's late duplicate would be
    re-applied; size the window above the keys that arrive within one
    request's retry span). *)

type t

val create : ?capacity:int -> unit -> t

(** [witness t ~src ~id] records an arrival and classifies it: [`New] the
    first time a key is seen (within the window), [`Duplicate] after. *)
val witness : t -> src:int -> id:int -> [ `New | `Duplicate ]

(** Distinct keys witnessed / duplicate arrivals suppressed / keys
    evicted by the window bound. *)
val distinct : t -> int

val duplicates : t -> int

val evicted : t -> int

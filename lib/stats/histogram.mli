(** Fixed-resolution latency histogram.

    Mirrors the paper's load generator, which records round-trip times "at
    1000-nanosecond precision" (§6.1): samples are bucketed at a configurable
    nanosecond resolution with an overflow bucket at the top. *)

type t

(** [create ?resolution_ns ?max_ns ()] makes an empty histogram. Defaults:
    1 µs buckets up to 100 ms. *)
val create : ?resolution_ns:int -> ?max_ns:int -> unit -> t

val record : t -> int -> unit

val count : t -> int

(** [percentile t p] is the latency (ns, bucket upper bound) below which a
    [p] fraction of samples fall. [p] in [0, 1]. Raises [Invalid_argument]
    on an empty histogram. *)
val percentile : t -> float -> int

val mean : t -> float

val min_ns : t -> int

val max_ns : t -> int

val clear : t -> unit

(** Merge [src] into [dst]; resolutions must match. *)
val merge_into : dst:t -> src:t -> unit

(** Deterministic SplitMix64 pseudo-random number generator.

    Every stochastic component of the simulation (arrival processes, key
    popularity, trace synthesis) draws from an explicitly seeded [Rng.t] so
    experiments are reproducible run to run.

    The state is kept unboxed: [int] and [bool] allocate nothing, and
    [next_int64] and [float] allocate only their boxed result. *)

type t

val create : seed:int -> t

(** [split t] derives an independent generator; used to give each client /
    workload component its own stream. *)
val split : t -> t

(** [stream ~seed ~index] is the generator for job [index] of a parallel
    run seeded with [seed]: deterministic in [(seed, index)], independent
    of which domain executes the job, and non-colliding across indices.
    Requires [index >= 0]. *)
val stream : seed:int -> index:int -> t

(** [stream_seed ~seed ~index] is [stream]'s initial state as an [int],
    for components that take a seed rather than a generator. *)
val stream_seed : seed:int -> index:int -> int

(** Raw state save/restore: lets a packed table (e.g. a million-connection
    load driver) keep one stream per row as 8 flat bytes and rehydrate
    rows into a single scratch generator without allocating. *)
val state : t -> int64

val set_state : t -> int64 -> unit

(** The SplitMix64 finalizer, exposed for hash-mixing uses (consistent
    hashing scatters FNV digests through it). *)
val mix64 : int64 -> int64

(** [next_int64 t] is a uniform 64-bit value. *)
val next_int64 : t -> int64

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
val int : t -> int -> int

(** [bool t p] is [true] with probability [p]. *)
val bool : t -> float -> bool

(** Dynamic zero-copy threshold (paper §7, "Static zero-copy threshold").

    The 512-byte threshold is a point estimate for one machine under one
    load; §7 observes it should move with memory-bandwidth pressure. This
    module keeps online estimates of the two quantities whose ratio defines
    the crossover:

    - the per-byte cost of the copy path (EWMA over observed copies), and
    - the fixed metadata cost of the zero-copy path (EWMA over observed
      constructions, plus the completion-side share from the machine
      parameters),

    and sets [threshold = zc_fixed_cost / copy_cost_per_byte]. Construction
    costs are measured from the per-core cycle meter around each [make] or
    [of_buf], so the estimate tracks whatever the cache hierarchy is
    currently doing — under higher memory pressure copies get slower per
    byte and the threshold drops; if metadata misses dominate it rises.

    The threshold is all this module owns: the copy/zero-copy decision
    itself is {!Cf_ptr}'s [len >= threshold] compare, which [make] and
    [of_buf] call with the learned value. *)

type t

(** [create ?initial ?alpha ()] — [initial] threshold (default 512),
    EWMA weight [alpha] (default 0.05). *)
val create : ?initial:int -> ?alpha:float -> unit -> t

(** Current threshold in bytes (clamped to [64, 8192]). *)
val threshold : t -> int

(** Drop-in replacement for {!Cf_ptr.make}: {!Cf_ptr.make_at} at the
    current threshold, timed on [cpu], and one learning step — a zero-copy
    construction observes its cycles plus [cost_completion_per_sge] (the
    completion-side release it does not see), a copy observes its cycles
    over [len] bytes, a zero-byte copy observes nothing. On an unmetered
    [cpu] ({!Memmodel.Cpu.none}) the estimates stay frozen. *)
val make :
  cpu:Memmodel.Cpu.t -> t -> Net.Endpoint.t -> Mem.View.t -> Wire.Payload.t

(** [of_buf ~cpu ?site t ep p] is {!make} for a [Zero_copy] payload the
    caller already holds, built on {!Cf_ptr.of_buf}: at or above the
    threshold [p] itself comes back, its reference untouched; below it the
    bytes are copied into [ep]'s arena and the reference dropped, under
    [site]. Same learning step as {!make}. Any other payload is returned
    as is, unobserved. *)
val of_buf :
  cpu:Memmodel.Cpu.t ->
  ?site:string ->
  t ->
  Net.Endpoint.t ->
  Wire.Payload.t ->
  Wire.Payload.t

(** Feed one copy-path observation ([cycles] spent copying [bytes])
    through the EWMA/refresh step {!make} performs. No-op when
    [bytes <= 0]. For tests and replayed traces. *)
val observe_copy : t -> bytes:int -> cycles:float -> unit

(** Feed one zero-copy construction cost (fixed cycles, completion share
    included) through the EWMA/refresh step. *)
val observe_zc : t -> cycles:float -> unit

(** Observed estimates, for inspection: (copy cycles/byte, zc fixed cycles). *)
val estimates : t -> float * float

val observations : t -> int

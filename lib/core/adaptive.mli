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
    costs are measured from the per-core cycle meter around each [make], so
    the estimate tracks whatever the cache hierarchy is currently doing —
    under higher memory pressure copies get slower per byte and the
    threshold drops; if metadata misses dominate it rises. *)

type t

(** [create ?initial ?alpha ()] — [initial] threshold (default 512),
    EWMA weight [alpha] (default 0.05). *)
val create : ?initial:int -> ?alpha:float -> unit -> t

(** Current threshold in bytes (clamped to [64, 8192]). *)
val threshold : t -> int

(** Drop-in replacement for {!Cf_ptr.make} that uses — and updates — the
    adaptive threshold, timing each construction on [cpu]. On an
    unmetered [cpu] ({!Memmodel.Cpu.none}) the estimates stay frozen. *)
val make :
  cpu:Memmodel.Cpu.t -> t -> Net.Endpoint.t -> Mem.View.t -> Wire.Payload.t

(** Feed one synthetic copy-path observation ([cycles] spent copying
    [bytes]) through the same EWMA/refresh step [make] performs. No-op when
    [bytes <= 0]. For tests and replayed traces. *)
val observe_copy : t -> bytes:int -> cycles:float -> unit

(** Feed one synthetic zero-copy construction cost (fixed cycles,
    completion share included) through the EWMA/refresh step. *)
val observe_zc : t -> cycles:float -> unit

(** Observed estimates, for inspection: (copy cycles/byte, zc fixed cycles). *)
val estimates : t -> float * float

val observations : t -> int

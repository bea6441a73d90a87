(** The copy/zero-copy policy cell: the threshold the stack's one
    [len >= threshold] decision ({!Cf_ptr}) reads, and its only writer.
    {!Config.t} carries a cell and seeds it. A cell is either

    - {e fixed} ({!fixed}): it holds its seed and is never written, so
      parallel domains can share it. {!Config.default} holds [fixed 512],
      the value the measurement study derives (§5); or
    - {e learning} ({!create}): it moves its threshold with load, as §7
      ("Static zero-copy threshold") asks. It keeps online estimates of the
      two costs whose ratio is the crossover — the copy path's cost per
      byte and the zero-copy path's fixed metadata cost (completion-side
      share included) — and sets
      [threshold = zc_fixed_cost / copy_cost_per_byte]. The costs are the
      per-core cycle meter's reading around each construction, so under
      memory pressure copies get slower per byte and the threshold drops;
      if metadata misses dominate it rises. *)

type t

(** [create ?initial ?alpha ()] — a learning cell: [initial] threshold
    (default 512), EWMA weight [alpha] (default 0.05; a weight of 0 never
    moves, so it makes the cell fixed). *)
val create : ?initial:int -> ?alpha:float -> unit -> t

(** [fixed n] — a cell frozen at [n], not clamped ([0] is all zero-copy,
    [max_int] all copy). Every update below is a no-op on it. *)
val fixed : int -> t

(** Whether the cell learns ({!create}) or is fixed ({!fixed}). *)
val learns : t -> bool

(** Current threshold in bytes (a learning cell's is clamped to
    [64, 8192]). *)
val threshold : t -> int

(** [learn t ~cpu ~c0 ~len payload] — one learning step for a
    construction of [len] bytes that started when [cpu]'s meter read [c0]
    and built [payload]: a zero-copy payload observes its cycles plus
    [cost_completion_per_sge] (the completion-side release it does not
    see), a copy observes its cycles over [len] bytes, a zero-byte copy
    observes nothing. A no-op on a fixed cell and on an unmetered [cpu]
    ({!Memmodel.Cpu.none}). *)
val learn :
  t -> cpu:Memmodel.Cpu.t -> c0:float -> len:int -> Wire.Payload.t -> unit

(** Feed one copy-path observation ([cycles] spent copying [bytes])
    through the EWMA/refresh step {!learn} performs. No-op when
    [bytes <= 0]. For tests and replayed traces. *)
val observe_copy : t -> bytes:int -> cycles:float -> unit

(** Feed one zero-copy construction cost (fixed cycles, completion share
    included) through the EWMA/refresh step. *)
val observe_zc : t -> cycles:float -> unit

(** Observed estimates, for inspection: (copy cycles/byte, zc fixed cycles). *)
val estimates : t -> float * float

val observations : t -> int

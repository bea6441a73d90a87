(** Hand-rolled serialization paths from Figure 1 of the paper.

    These bound the design space for the echo experiments (§2.2): the same
    list-of-buffers payload is transmitted four ways —

    - {b forward}: no serialization at all; the received packet payload is
      retransmitted as-is (the "no serialization" 77 Gbps ceiling);
    - {b zero-copy}: a framing header plus one scatter-gather entry per
      field. [`Raw] charges no memory-safety bookkeeping (the upper bound in
      Figures 2/3); [`Safe] pays recover_ptr + refcount per entry, i.e. the
      "scatter-gather with software overheads" configuration;
    - {b one-copy}: fields are copied once, directly into the pinned staging
      buffer;
    - {b two-copy}: fields are first gathered into a contiguous scratch
      buffer and then copied into staging — what a conventional library does.

    Framing: [u32 n][u32 len x n][field bytes ...]. *)

type safety = [ `Raw | `Safe ]

(** [frame_len fields] is the framed payload size for the given field
    lengths. *)
val frame_len : int list -> int

(** [forward tr ~dst buf] retransmits [buf]'s window unchanged,
    zero-copy (takes over one reference on [buf]). *)
val forward : Net.Transport.t -> dst:int -> Mem.Pinned.Buf.t -> unit

(** [send_zero_copy ~safety tr ~dst views] frames and transmits the
    fields as scatter-gather entries. All views must lie in registered
    pinned memory (raises [Invalid_argument] otherwise). *)
val send_zero_copy :
  safety:safety -> Net.Transport.t -> dst:int -> Mem.View.t list -> unit

val send_one_copy : Net.Transport.t -> dst:int -> Mem.View.t list -> unit

val send_two_copy : Net.Transport.t -> dst:int -> Mem.View.t list -> unit

(** [parse ~cpu view] splits a framed payload back into field windows
    (zero-copy). Raises [Invalid_argument] on malformed framing. *)
val parse : cpu:Memmodel.Cpu.t -> Mem.View.t -> Mem.View.t list

(** Charged byte cursors.

    Writers/readers over a {!Mem.View.t} window that perform the real byte
    moves and charge the cache model for each access. Serializers use these
    for headers, varints, and field tables; bulk field copies go through
    {!Mem.Pinned.Buf.blit_from} / {!Mem.Arena.copy_in}. *)

module Writer : sig
  type t

  (** [create ~cpu ?cat view] writes into [view] starting at offset 0.
      Charges go to [cpu], category [cat] (default [Tx]). *)
  val create : cpu:Memmodel.Cpu.t -> ?cat:Memmodel.Cpu.category -> Mem.View.t -> t

  (** [reset ~cpu t view] retargets the writer at [view], position 0,
      rebinding the charging cpu and keeping the category — so hot paths
      reuse one writer across messages (and across endpoints). *)
  val reset : cpu:Memmodel.Cpu.t -> t -> Mem.View.t -> unit

  val pos : t -> int

  val remaining : t -> int

  (** [seek t pos] repositions (for backpatching offsets). *)
  val seek : t -> int -> unit

  val u8 : t -> int -> unit

  val u16 : t -> int -> unit

  val u32 : t -> int -> unit

  val u64 : t -> int64 -> unit

  (** LEB128, as in Protobuf. Returns nothing; use {!varint_len} to size. *)
  val varint : t -> int64 -> unit

  val string : t -> string -> unit

  (** [view_bytes t src] copies [src]'s bytes at the cursor, charging a
      streaming read of the source and write of the destination. *)
  val view_bytes : t -> Mem.View.t -> unit

  (** {2 Constant-offset fast stores}

      Specialized serializers (Codegen.Emit's folded writers) hoist one
      bounds check over a whole header block with [span], then issue
      straight-line unchecked stores at literal offsets with the [_at]
      calls. The [_at] stores do not move the cursor. Charges are issued
      per store, identically to the cursor-advancing calls, so cache-model
      accounting is unchanged. Callers must [span] first: the [_at] stores
      perform no bounds check of their own. *)

  (** [span t ~pos ~len] checks that [pos, pos+len) fits the window
      (raises [Overflow] otherwise); charges nothing. *)
  val span : t -> pos:int -> len:int -> unit

  (** Store a little-endian u32 at absolute offset [pos]. Unchecked. *)
  val u32_at : t -> pos:int -> int -> unit

  (** Store a little-endian u64 at absolute offset [pos]. Unchecked.
      Same byte extraction as {!u64}. *)
  val u64_at : t -> pos:int -> int64 -> unit

  (** [word_at t ~pos src ~src_off] stores the 8 bytes of [src] at
      [src_off] at absolute offset [pos] (a little-endian u64 kept in a
      byte column); charged like {!u64_at}. Unchecked. *)
  val word_at : t -> pos:int -> Bytes.t -> src_off:int -> unit
end

module Reader : sig
  type t

  val create : cpu:Memmodel.Cpu.t -> ?cat:Memmodel.Cpu.category -> Mem.View.t -> t

  val pos : t -> int

  val remaining : t -> int

  val seek : t -> int -> unit

  val u8 : t -> int

  val u16 : t -> int

  val u32 : t -> int

  val u64 : t -> int64

  val varint : t -> int64

  val string : t -> len:int -> string

  (** [sub t ~len] returns a view of the next [len] bytes (no copy, no
      charge beyond the header touch) and advances. *)
  val sub : t -> len:int -> Mem.View.t
end

(** Encoded size of a LEB128 varint. *)
val varint_len : int64 -> int

(** Pinned (DMA-safe) memory: slab pools of power-of-two buffers with
    reference counts and use-after-free detection.

    Mirrors the paper's "pinned memory allocator as part of the Cornflakes
    networking stack API that allocates power-of-two-sized objects" (§4).
    Each buffer slot has:

    - a data range in the simulated address space (cache-visible),
    - a reference count living in a separate metadata range (so refcount
      updates produce the metadata cache misses the paper measures),
    - a generation counter: any access through a stale handle raises
      [Use_after_free], which is how tests prove the safety property.

    A pool reserves every class's full simulated range up front, but backs
    it with host bytes only as it is used: in 64 KB chunks (one slot per
    chunk for classes above 64 KB), each created, zeroed, the first time
    {!Buf.alloc} hands out a slot in it. Slots are handed out LIFO from slot
    0, so a class's backing grows to its high-water mark. Simulated
    addresses never depend on the backing.

    Every mutating entry point takes an optional [?site] label. When the
    RefSan sanitizer is enabled ([CF_SANITIZE=1] or
    [Sanitizer.Refsan.set_enabled true]), each operation is mirrored into a
    shadow ledger tagged with that label, powering leak, double-free,
    use-after-free, and write-after-post diagnostics. With the sanitizer
    off the hooks cost one boolean load. *)

(** Raised on any access through a stale handle (freed slot or reused
    generation). [history] carries the buffer's RefSan event log, oldest
    first, when the sanitizer is enabled; [[]] otherwise. *)
exception
  Use_after_free of {
    pool : string;
    slot : int;
    gen : int;
    history : string list;
  }

exception Out_of_memory of string

(** Raised (without a backtrace) by the [_exn] recovery functions when an
    address range is not inside a live pinned allocation. *)
exception Unpinned

module Pool : sig
  type t

  (** [create space ~name ~classes] builds a pool; [classes] lists
      [(buffer_size, capacity)] pairs; sizes must be powers of two and
      strictly increasing. A handle packs its slot beside its generation
      and its window in one int, so a class holds at most 2^24 slots of at
      most 2^30 bytes: [create] raises [Invalid_argument] otherwise,
      before it reserves anything. A slot's generation wraps modulo 2^39. *)
  val create : Addr_space.t -> name:string -> classes:(int * int) list -> t

  val name : t -> string

  (** Address range covered by the pool's data slabs. *)
  val base : t -> int

  val limit : t -> int

  val contains : t -> addr:int -> bool

  (** Number of live (allocated) buffers, across classes. *)
  val live : t -> int

  (** Buffers currently free in the class that serves [len]. *)
  val available_for : t -> len:int -> int
end

module Buf : sig
  type t

  (** [alloc ~cpu ?site pool ~len] takes a buffer from the smallest class
      with size >= [len]; its visible window is [len] bytes; refcount starts
      at 1. Raises [Out_of_memory] when the class is exhausted. *)
  val alloc : cpu:Memmodel.Cpu.t -> ?site:string -> Pool.t -> len:int -> t

  val addr : t -> int

  (** Simulated address of the buffer's reference-count metadata (8 bytes;
      eight buffers share a cache line). *)
  val metadata_addr : t -> int

  val len : t -> int

  (** Size of the underlying slot (the power-of-two class size). *)
  val slot_size : t -> int

  val refcount : t -> int

  val is_live : t -> bool

  (** RefSan identity of this handle (pool uid, slot, generation, window). *)
  val san_id : t -> Sanitizer.Refsan.buf_id

  (** [incr_ref ~cpu ?site t] charges a metadata access (the zero-copy
      safety cost) and bumps the count. Raises [Use_after_free] on a stale
      handle. *)
  val incr_ref : cpu:Memmodel.Cpu.t -> ?site:string -> t -> unit

  (** [decr_ref ~cpu ?site t] releases one reference; at zero the slot
      returns to the free list and the generation advances. *)
  val decr_ref : cpu:Memmodel.Cpu.t -> ?site:string -> t -> unit

  (** [view t] is a read window over the visible bytes.
      Raises [Use_after_free] on a stale handle. *)
  val view : t -> View.t

  (** Allocation-free window access for per-send hot paths: the backing
      bytes of the buffer's chunk plus the window's start offset within
      them, without materialising a [View]. Callers must stay within [len t] bytes from
      [backing_off t]. [backing] raises [Use_after_free] on a stale
      handle. *)
  val backing : t -> Bytes.t

  val backing_off : t -> int

  (** [sub_view t ~off ~len] is [View.sub (view t) ~off ~len] in a single
      allocation. Raises [Use_after_free] on a stale handle (reported at
      [site]) and [Invalid_argument] when the window leaves the slot. *)
  val sub_view : ?site:string -> t -> off:int -> len:int -> View.t

  (** [sub_backing ?site t ~off ~len] makes {!sub_view}'s checks and
      returns {!backing}, allocating nothing: the window is
      [off, off + len) from [backing_off t], at simulated address
      [addr t + off]. *)
  val sub_backing : ?site:string -> t -> off:int -> len:int -> Bytes.t

  (** [blit_to t ~dst ~dst_off] copies the visible window into [dst]
      (device DMA gather) without materialising a [View]. *)
  val blit_to : ?site:string -> t -> dst:Bytes.t -> dst_off:int -> unit

  (** [sub t ~off ~len] narrows the handle (shares the refcount; does not
      bump it). *)
  val sub : ?site:string -> t -> off:int -> len:int -> t

  (** [fill ~cpu ?site t s] writes [s] at the start of the visible window
      (setup/application writes). *)
  val fill : cpu:Memmodel.Cpu.t -> ?site:string -> t -> string -> unit

  (** [fill_substring ~cpu ?site t s ~src_off ~len] writes
      [s[src_off, src_off+len)] at the start of the visible window without
      materializing an intermediate substring (hot receive path). *)
  val fill_substring :
    cpu:Memmodel.Cpu.t ->
    ?site:string ->
    t ->
    string ->
    src_off:int ->
    len:int ->
    unit

  (** [fill_subbytes ~cpu ?site t b ~src_off ~len] — {!fill_substring} over
      a caller-owned bytes window (e.g. a pooled NIC egress frame): same
      RefSan write event, no intermediate string. *)
  val fill_subbytes :
    cpu:Memmodel.Cpu.t ->
    ?site:string ->
    t ->
    Bytes.t ->
    src_off:int ->
    len:int ->
    unit

  (** [blit_from ~cpu ?site t ~src ~dst_off] copies [src]'s visible bytes
      into the buffer, charging a streaming read of [src] and write of the
      target. *)
  val blit_from :
    cpu:Memmodel.Cpu.t -> ?site:string -> t -> src:View.t -> dst_off:int -> unit

  (** [blit_from_buf ~cpu ?site t ~src ~src_off ~len ~dst_off] is
      {!blit_from} of [src]'s window [src_off, src_off + len), read from the
      pinned buffer in place: the same copy, RefSan write event and
      charges, with no source [View] built. Raises [Use_after_free] for a
      dead [src] or [t]. *)
  val blit_from_buf :
    cpu:Memmodel.Cpu.t ->
    ?site:string ->
    t ->
    src:t ->
    src_off:int ->
    len:int ->
    dst_off:int ->
    unit

  (** Report a write that mutated the buffer's bytes without going through
      [fill]/[blit_from] (direct view mutation, e.g. a header writer) so the
      write-after-post detector sees it. *)
  val note_write : ?site:string -> t -> off:int -> len:int -> unit

  (** Declare (or retract) long-lived ownership of one reference — e.g. a KV
      store keeping a value buffer across requests. Rooted references are
      not reported as leaks. *)
  val root : ?site:string -> t -> unit

  val unroot : ?site:string -> t -> unit

  (** [hold ?site ?skip t] declares the handle's visible window (minus the
      first [skip] bytes) in flight — posted to a NIC ring or parked for
      retransmission. Returns a token for [release_hold]; [None] when the
      sanitizer is off or the window is empty. *)
  val hold : ?site:string -> ?skip:int -> t -> int option

  val release_hold : int option -> unit

  (** [recover_exn pool ~addr ~len] implements the stack's [recover_ptr]:
      if [addr, addr+len) lies within a live allocation of [pool], bump its
      refcount and return a handle windowed to that slice; otherwise raise
      {!Unpinned}. Only the handle is allocated. *)
  val recover_exn :
    cpu:Memmodel.Cpu.t -> ?site:string -> Pool.t -> addr:int -> len:int -> t
end

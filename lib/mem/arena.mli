(** Bump-pointer arena for copied serialization data, with size-classed
    free lists.

    The paper's Copy variant of [CFPtr] stores field bytes in arena-backed
    vectors: "Cornflakes uses efficient arena allocation … that offers fast
    allocation and mass deallocation" (§3.2.2). The arena is reset after each
    request, so its lines stay hot in cache — which is exactly why the second
    copy into the DMA buffer is cheap.

    On top of the bump pointer, chunks handed back via {!recycle} are parked
    on per-size-class free lists (powers of two, 16 B – 128 KB) and reused by
    later allocations of the same class, so a steady-state send loop cycles
    through a few cache-hot chunks instead of consuming fresh arena space.
    Every allocation reserves its full class size; requests above 128 KB are
    exact-size bump allocations that only {!reset} reclaims.

    Under RefSan, recycling is modeled as free + alloc: {!recycle} emits a
    free event and the allocation that reuses the chunk emits an alloc event
    with an ["Arena.reuse:<site>"] label (rooted while live, so arena-owned
    chunks never count as leaks). Plain bump allocations stay untracked. *)

type t

val create : Addr_space.t -> capacity:int -> t

(** Bytes reserved by the bump pointer (class-rounded; recycling does not
    shrink it). *)
val used : t -> int

val capacity : t -> int

(** Allocations served from a free list since creation. *)
val recycle_hits : t -> int

(** Chunks currently parked on free lists. *)
val parked : t -> int

(** Clamp the arena to behave as if its backing were [cap] bytes (fault
    injection for exhaustion testing); [None] restores the real capacity.
    Recycled chunks are unaffected — they reuse already-reserved space.
    Raises [Invalid_argument] on a negative capacity. *)
val set_soft_capacity : t -> int option -> unit

val soft_capacity : t -> int option

(** Allocations refused with [Out_of_memory] since creation. *)
val oom_events : t -> int

(** [copy_in ~cpu ?site t src] copies [src]'s bytes into the arena (charging
    a streaming read of the source and write of the arena) and returns a view
    of the copy. Raises [Out_of_memory] if the arena is full. *)
val copy_in : cpu:Memmodel.Cpu.t -> ?site:string -> t -> View.t -> View.t

(** [alloc ~cpu ?site t ~len] reserves arena space (for headers built in
    place), preferring a recycled chunk of the same size class. *)
val alloc : cpu:Memmodel.Cpu.t -> ?site:string -> t -> len:int -> View.t

(** [recycle ?site t v] returns a chunk obtained from [alloc]/[copy_in] to
    its size-class free list. The view must come from this arena and must no
    longer be read — a later allocation of the same class may overwrite it.
    Oversized (>128 KB) chunks are ignored; [reset] reclaims them. *)
val recycle : ?site:string -> t -> View.t -> unit

(** Mass-deallocate; O(1) plus free-list bookkeeping. *)
val reset : t -> unit

(** Branchless copy/zero-copy verdicts over the arena's 16 B size-class
    granule.

    [make ~threshold] precomputes, per granule bucket, whether a payload of
    that size should travel zero-copy ([len >= threshold]); [zc] is then one
    table load instead of a per-field compare, and — more importantly — the
    codegen layer uses the same bucketing to fold the verdict away entirely
    for fields with [max_size]/[min_size] bounds. Thresholds that are not
    representable on the granule (unaligned, negative, or sentinels such as
    [Config.all_copy]'s [max_int]) transparently keep the exact compare. *)
module Verdict : sig
  type t

  val make : threshold:int -> t

  val threshold : t -> int

  (** [zc t len] — true iff a [len]-byte payload should go zero-copy.
      Exactly equivalent to [len >= threshold t] for every [len]. *)
  val zc : t -> int -> bool
end

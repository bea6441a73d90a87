(** Registry of pinned memory ranges — the stack's view of what is DMA-safe.

    [recover_ptr] is the memory-transparency primitive (§3.2.2): given an
    arbitrary address, find whether it falls inside a live pinned allocation
    and, if so, take a reference on it. The range table itself is small and
    hot; the expensive part is the refcount metadata touch, charged inside
    [Pinned.Buf.recover]. *)

type t

val create : Addr_space.t -> t

val space : t -> Addr_space.t

val register : t -> Pinned.Pool.t -> unit

val pools : t -> Pinned.Pool.t list

(** [recover_ptr ~cpu t ~addr ~len] returns a referenced handle if
    [addr, addr+len) lies in a live pinned allocation. *)
val recover_ptr :
  cpu:Memmodel.Cpu.t -> t -> addr:int -> len:int -> Pinned.Buf.t option

(** [recover_exn] is {!recover_ptr} raising [Pinned.Unpinned] instead of
    returning [None]: the zero-copy wrap allocates only the handle. *)
val recover_exn :
  cpu:Memmodel.Cpu.t -> t -> addr:int -> len:int -> Pinned.Buf.t

(** [recover_held_exn ~cpu t buf] is
    [recover_exn ~cpu t ~addr:(Pinned.Buf.addr buf) ~len:(Pinned.Buf.len buf)]
    for a buffer the caller already holds: the same charges, reference and
    RefSan incref, returning [buf] itself (one more reference) instead of
    a fresh handle. Raises [Pinned.Unpinned] when [buf]'s pool is not
    registered and [Pinned.Use_after_free] when [buf] is stale. Allocates
    nothing. *)
val recover_held_exn : cpu:Memmodel.Cpu.t -> t -> Pinned.Buf.t -> Pinned.Buf.t

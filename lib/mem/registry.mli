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

(** [is_pinned t ~addr] checks range membership only (no refcount side
    effects, no charges). *)
val is_pinned : t -> addr:int -> bool

(** [recover_ptr ~cpu t ~addr ~len] returns a referenced handle if
    [addr, addr+len) lies in a live pinned allocation. *)
val recover_ptr :
  cpu:Memmodel.Cpu.t -> t -> addr:int -> len:int -> Pinned.Buf.t option

(** [recover_exn] is {!recover_ptr} raising [Pinned.Unpinned] instead of
    returning [None]: the zero-copy wrap allocates only the handle. *)
val recover_exn :
  cpu:Memmodel.Cpu.t -> t -> addr:int -> len:int -> Pinned.Buf.t

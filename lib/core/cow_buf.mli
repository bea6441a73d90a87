(** Copy-on-write smart pointer over pinned buffers.

    Implements the write-protection design sketched in the paper's §7
    ("Cornflakes could provide a library of smart pointers for developers
    where writes to the smart pointer automatically trigger new allocations
    and raw pointer swaps"): the application routes every mutation through
    [write]; if the underlying buffer is shared — e.g. referenced by an
    in-flight zero-copy send — the write first moves the value to a fresh
    allocation, so the bytes the NIC is reading are never modified. This
    reduces write protection to the use-after-free protection the refcounts
    already give, with no mprotect-style system calls. *)

type t

(** [create ~cpu pool ~len] — a fresh exclusive buffer. *)
val create : cpu:Memmodel.Cpu.t -> Mem.Pinned.Pool.t -> len:int -> t

(** [of_buf pool buf] wraps an existing buffer, taking over the caller's
    reference. The pool is where copy-on-write clones come from. *)
val of_buf : Mem.Pinned.Pool.t -> Mem.Pinned.Buf.t -> t

(** The current underlying buffer. Hand its view to {!Cf_ptr.make} (which
    takes its own reference) to send the value zero-copy. *)
val buf : t -> Mem.Pinned.Buf.t

val len : t -> int

(** [shared t] — true while anyone besides this smart pointer holds a
    reference (e.g. a pending transmission). *)
val shared : t -> bool

(** Number of copy-on-write clones performed so far. *)
val cow_count : t -> int

(** [write ~cpu t ~off s] mutates the value. If the buffer is shared, the
    value is first cloned into a fresh allocation (charged as alloc +
    copy) and the smart pointer swings to the clone; concurrent readers
    keep the old, intact bytes. *)
val write : cpu:Memmodel.Cpu.t -> t -> off:int -> string -> unit

(** Release the smart pointer's reference. *)
val release : cpu:Memmodel.Cpu.t -> t -> unit

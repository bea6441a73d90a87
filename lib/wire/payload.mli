(** The data a bytes/string field carries — the representation behind the
    paper's [CFPtr] smart pointer (Listing 3).

    - [Copied]: bytes already copied into a per-request arena; the stack
      will copy them once more into the DMA staging buffer (cheap: cached).
    - [Zero_copy]: a referenced pinned buffer; sent as an extra
      scatter-gather entry with no CPU copy.
    - [Literal]: an unowned window onto application memory. This is how
      baseline libraries hold field data before their serializers copy it;
      the Cornflakes constructor ({!Cornflakes.Cf_ptr}) never produces it. *)

type t =
  | Copied of Mem.View.t
  | Zero_copy of Mem.Pinned.Buf.t
  | Literal of Mem.View.t

(** A shared zero-length [Literal]: the value vacated payload slots hold. *)
val empty : t

val len : t -> int

(** A read window on the payload bytes (raises [Use_after_free] for a dead
    zero-copy buffer). *)
val view : t -> Mem.View.t

val to_string : t -> string

val of_string : Mem.Addr_space.t -> string -> t

(** [release ?cpu t] drops the reference held by a [Zero_copy] payload;
    no-op for the other variants. *)
val release : ?cpu:Memmodel.Cpu.t -> t -> unit

(** [is_zero_copy t] — true only for the [Zero_copy] variant. *)
val is_zero_copy : t -> bool

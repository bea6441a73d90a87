(** A readable byte window with a simulated address.

    Serializers consume [View.t] values regardless of where the bytes live
    (pinned slab, unpinned heap, receive buffer, arena), copy real bytes for
    correctness, and charge simulated cache costs at [addr]. *)

type t = {
  addr : int; (* simulated address of the first visible byte *)
  data : Bytes.t; (* backing storage *)
  off : int; (* offset of the first visible byte within [data] *)
  len : int;
}

val make : addr:int -> data:Bytes.t -> off:int -> len:int -> t

(** [sub t ~off ~len] narrows the window. *)
val sub : t -> off:int -> len:int -> t

(** [to_string t] copies the visible bytes (test/debug use; not charged). *)
val to_string : t -> string

val of_string : Addr_space.t -> string -> t

(** [blit t ~dst ~dst_off] copies the visible bytes into [dst]. *)
val blit : t -> dst:Bytes.t -> dst_off:int -> unit

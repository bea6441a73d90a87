(** Raw packet framing for the kernel-bypass UDP datapath.

    A fixed 42-byte Ethernet/IPv4/UDP header precedes every payload; endpoint
    ids stand in for MAC/IP/port tuples. The stack writes this header into
    the first scatter-gather entry of every send (§3.2.3). *)

(** Header field offsets — the layout in one place, shared by the writer and
    the readers. *)
module Off : sig
  val header_len : int

  val ethertype : int

  val ip_version : int

  val src : int

  val dst : int
end

(** Alias for {!Off.header_len}. *)
val header_len : int

(** Jumbo frame payload budget (paper assumes ~9000-byte frames). *)
val max_payload : int

(** [write_header buf ~off ~src ~dst] writes the 42-byte header. *)
val write_header : Bytes.t -> off:int -> src:int -> dst:int -> unit

(** [src_of_bytes b ~len] and [dst_of_bytes b ~len] read the source and
    destination endpoint ids of the frame in [b]: [len] is the frame
    length within [b] (whose capacity may be larger). Raise
    [Invalid_argument] if [len] is shorter than a header. *)
val src_of_bytes : Bytes.t -> len:int -> int

val dst_of_bytes : Bytes.t -> len:int -> int

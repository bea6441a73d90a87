(** Multi-frame objects — the segmentation support sketched in §3.2.3.

    The paper's prototype sends only single-frame messages, but the design
    section describes the extension: "the copy and zero-copy iterators could
    take in start and end offsets so they only operate on entries within the
    specified range; the networking stack could call the iterators for each
    message frame until the entire object has been written." That is exactly
    what [Segmenter.send] does, using {!Obj_api}'s ranged iterators: each
    frame carries a 16-byte fragment header, the slice of the header+copied
    region that falls in its range, and zero-copy slices (sub-buffers with
    their own references) of the payloads in its range.

    Frames of one object may interleave with other traffic; the receiving
    {!Reassembler} collects chunks by (source, message id) and delivers the
    complete object as a single pinned buffer, validated once and read in
    place with the ordinary [Wire.Reader].

    Fragment header: [u32 msg_id][u32 offset][u32 total_len][u32 chunk_len]. *)

val frag_header_len : int

(** Object bytes carried per frame. *)
val max_chunk : int

(** Largest supported reassembled object (the reassembly pool's top class). *)
val max_object : int

module Segmenter : sig
  type t

  val create : Net.Endpoint.t -> t

  (** [send t ~dst msg] transmits an object of any size up to
      [max_object], in as many frames as needed (single-frame objects also
      get a fragment header, so one receive path handles everything). The
      hybrid copy/zero-copy decisions were already taken per field at CFPtr
      construction time. Ownership of the message's zero-copy references
      transfers to the stack, as with {!Cornflakes.Send.send_object}.
      Charges the endpoint's meter. Raises [Invalid_argument] if the object exceeds
      [max_object] or its header+copied region exceeds [max_chunk]. *)
  val send : t -> dst:int -> Wire.Dyn.t -> unit
end

module Reassembler : sig
  type t

  (** [create registry] allocates the reassembly pool (registered as pinned,
      so fields read from reassembled objects are zero-copy-eligible
      when echoed). *)
  val create : Mem.Registry.t -> t

  (** [on_packet ~cpu t ~src buf ~deliver] consumes one received frame
      (taking ownership of [buf]); when the frame completes an object,
      [deliver ~src obj] is called with a buffer the callee must release.
      Malformed fragments are dropped. *)
  val on_packet :
    cpu:Memmodel.Cpu.t ->
    t ->
    src:int ->
    Mem.Pinned.Buf.t ->
    deliver:(src:int -> Mem.Pinned.Buf.t -> unit) ->
    unit

  (** Objects currently mid-reassembly. *)
  val pending : t -> int

  (** [expire t ~now ~timeout_ns] drops (and frees) half-built objects
      idle longer than [timeout_ns], returning how many were evicted. Call
      periodically with the engine clock; [on_packet] stamps activity with
      the most recent [now] it has seen. *)
  val expire : t -> now:int -> timeout_ns:int -> int
end

(** Cap'n Proto-style segmented serialization over dynamic messages.

    Captures Cap'n Proto's cost structure (§2.2, §6.1.3): the message is
    built into a list of fixed-size {e segments} (first copy of all field
    data, no integer encoding), and because the library hands the stack "a
    non-contiguous list of buffers that represent the object", the stack
    copies each segment into pinned staging memory behind a segment table
    (second copy). Reading is zero-copy through (segment, offset) pointers.

    Format:
    {v
    framing  := [u32 nsegs][u32 seg_len x nsegs][segments ...]
    struct   := [u32 presence bitmap][12-byte slot per present field]
    slot     := scalar: u64 value, u32 pad
              | payload: u32 seg, u32 off, u32 len
              | nested:  u32 seg, u32 off, u32 0
              | vector:  u32 seg, u32 off, u32 count (12-byte slots)
    v} *)

val name : string

exception Decode_error of string

(** Segment capacity in bytes (blobs larger than this get a dedicated
    segment). *)
val segment_bytes : int

(** [build ~cpu ep msg] returns the segments in order; the root struct
    starts at offset 0 of segment 0. *)
val build : cpu:Memmodel.Cpu.t -> Net.Endpoint.t -> Wire.Dyn.t -> Mem.View.t list

val serialize_and_send : Net.Transport.t -> dst:int -> Wire.Dyn.t -> unit

val deserialize :
  cpu:Memmodel.Cpu.t ->
  Schema.Desc.t ->
  Schema.Desc.message ->
  Mem.Pinned.Buf.t ->
  Wire.Dyn.t

(** FlatBuffers-style serialization over dynamic messages.

    Captures the FlatBuffers cost structure (§2.2, §6.1.3): the builder
    writes the whole object — scalars inline in tables, strings/vectors as
    relative-offset children — back-to-front into a scratch buffer (first
    copy of all field data), and the networking stack then copies the
    finished contiguous buffer into pinned staging memory (second copy).
    Reading is zero-copy: accessors follow relative offsets into the
    received packet without materialising field bytes.

    Format (simplified vtable-less flavour):
    {v
    [u32 root]                         root table position = 0 + root
    table  := [u32 presence bitmap][8-byte slot per present field]
    slot   := scalar value (inline u64)
            | payload: u32 rel, u32 len      (rel from slot position)
            | nested:  u32 rel, u32 0
            | vector:  u32 rel, u32 count    (vector of 8-byte slots)
    payload data is [bytes] at the target position.
    v} *)

val name : string

(** [build ~cpu ep msg] assembles the object in builder scratch (taken from
    the endpoint's arena) and returns the finished contiguous buffer. *)
val build : cpu:Memmodel.Cpu.t -> Net.Endpoint.t -> Wire.Dyn.t -> Mem.View.t

val serialize_and_send : Net.Transport.t -> dst:int -> Wire.Dyn.t -> unit

(** Zero-copy deserialization: payload fields are windows into [buf].
    Raises [Wire.Reader.Invalid] on a malformed frame, after releasing
    every reference the partial parse took. *)
val deserialize :
  cpu:Memmodel.Cpu.t ->
  Schema.Desc.t ->
  Schema.Desc.message ->
  Mem.Pinned.Buf.t ->
  Wire.Dyn.t

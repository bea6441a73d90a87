(** Protocol Buffers wire format (proto3 encoding) over dynamic messages.

    The copy structure matches the specialised baseline integration in the
    paper (§6.1.3): "Protobuf serializes from Protobuf structs into DMA-safe
    memory directly" — a sizing pass, then one charged encode of every field
    (varint keys/values, length-delimited payloads) straight into the pinned
    staging buffer. Decoding materialises field bytes into the endpoint's
    arena (Protobuf deserialization is not zero-copy) and validates string
    fields eagerly. *)

val name : string

(** Encoded size of a message body (without any outer length prefix). *)
val encoded_len : Wire.Dyn.t -> int

(** [encode ~cpu w msg] writes the proto3 encoding of [msg] into [w]. *)
val encode : cpu:Memmodel.Cpu.t -> Wire.Cursor.Writer.t -> Wire.Dyn.t -> unit

val serialize_and_send : Net.Transport.t -> dst:int -> Wire.Dyn.t -> unit

(** [decode ~cpu ep schema desc view] parses an encoded body. Unknown field
    numbers are skipped, last-wins for duplicated singular fields. Raises
    [Decode_error] on truncated/invalid input. *)
val decode :
  cpu:Memmodel.Cpu.t ->
  Net.Endpoint.t ->
  Schema.Desc.t ->
  Schema.Desc.message ->
  Mem.View.t ->
  Wire.Dyn.t

val deserialize :
  cpu:Memmodel.Cpu.t ->
  Net.Endpoint.t ->
  Schema.Desc.t ->
  Schema.Desc.message ->
  Mem.Pinned.Buf.t ->
  Wire.Dyn.t

exception Decode_error of string

(** The Cornflakes wire format (§3.3, Figure 4).

    An object is laid out as three regions:

    {v
    +-----------------------------+ 0
    | u32 bitmap word count       |
    | bitmap (present fields)     |
    | 8-byte info slot per        |
    |   present field, in schema  |
    |   order                     |
    +-----------------------------+ header_len
    | copied region ("stream"):   |
    |   list tables, nested       |
    |   headers, copied payloads  |
    +-----------------------------+ header_len + stream_len
    | zero-copy region: payloads  |
    |   appended by the NIC as    |
    |   extra gather entries      |
    +-----------------------------+ total
    v}

    Info slots: scalars hold the value inline (ints are never zero-copied —
    footnote 5); strings/bytes hold [(u32 offset, u32 length)]; nested
    messages hold [(u32 offset, u32 header_length)]; repeated fields hold
    [(u32 table_offset, u32 count)], the table being 8-byte entries of the
    element's slot form. All offsets are relative to the object start, so a
    receiver deserializes from the gathered (contiguous) packet without
    copies. *)

exception Malformed of string

(** The serialization plan: region sizes and the ordered zero-copy entries,
    produced by one traversal; [write] replays the identical traversal.

    The record is reusable: {!measure_into} refills it in place (the gather
    array grows once and is then recycled), so steady-state senders keep one
    plan per endpoint and allocate nothing per message. Only the first
    [zc_count] entries of [zc] are live. *)
type plan = private {
  mutable header_len : int;
  mutable stream_len : int;
  mutable zc : Mem.Pinned.Buf.t array; (* in traversal order *)
  mutable zc_count : int;
  mutable zc_len : int;
  mutable total_len : int;
  mutable stream_pos : int; (* write cursors, valid during [write] *)
  mutable zc_pos : int;
}

(** An empty plan for reuse with {!measure_into}. *)
val create_plan : unit -> plan

(** [measure_into plan msg] re-measures [msg] into [plan], reusing its
    gather array. *)
val measure_into : plan -> Wire.Dyn.t -> unit

(** [measure msg] = [create_plan] + [measure_into] (fresh plan per call). *)
val measure : Wire.Dyn.t -> plan

(** Live zero-copy entry count ([plan.zc_count]). *)
val zc_count : plan -> int

(** Iterate the live zero-copy entries in traversal order, without
    allocating. *)
val iter_zc : plan -> (Mem.Pinned.Buf.t -> unit) -> unit

(** The live zero-copy entries as a fresh list (tests / cold paths). *)
val zc_bufs : plan -> Mem.Pinned.Buf.t list

(** [object_len msg] without keeping the plan. *)
val object_len : Wire.Dyn.t -> int

(** Number of scatter-gather data entries the object needs:
    1 (header + copied region) + number of zero-copy payloads. *)
val num_entries : plan -> int

(** [write plan w msg] emits header + copied region
    ([plan.header_len + plan.stream_len] bytes) into [w], charging [w]'s
    meter; zero-copy bytes are not touched. Raises [Invalid_argument] if
    [w] is too small. *)
val write : plan -> Wire.Cursor.Writer.t -> Wire.Dyn.t -> unit

(** {2 Specialized-writer hooks (Codegen.Emit folded serializers)}

    Generated [write_folded] functions drive the same plan/cursor machinery
    as {!write} but fold layout constants (bitmap word, slot offsets) at
    codegen time. They are invoked through {!run} and fall back to
    {!write_msg_generic} whenever presence deviates from the all-fields
    fast path. *)

(** Field writers for the variable-size kinds. Each writes one 8-byte
    info slot at absolute offset [slot] and the bytes it points at.
    Precondition: the slot lies in a region already bounds-checked with
    [Cursor.Writer.span] (generated code spans the whole header block up
    front). Singular scalars need no hook: {!Wire.Dyn.write_scalar}. *)
val write_payload_at :
  Wire.Cursor.Writer.t ->
  plan ->
  Wire.Payload.t ->
  slot:int ->
  unit

(** A nested message: its header block in the copied region. *)
val write_nested_at :
  Wire.Cursor.Writer.t ->
  plan ->
  Wire.Dyn.t ->
  slot:int ->
  unit

(** [write_list_at w plan msg i ~slot]: repeated field [i] of [msg],
    its element table in the copied region. *)
val write_list_at :
  Wire.Cursor.Writer.t ->
  plan ->
  Wire.Dyn.t ->
  int ->
  slot:int ->
  unit

(** Generic interpreter-shaped body at header position 0 — the fallback arm
    of generated folded writers. Cursors must have been initialized by
    {!run}. Has the shape of {!run}'s [write] body. *)
val write_msg_generic : plan -> Wire.Cursor.Writer.t -> Wire.Dyn.t -> unit

(** [run plan w msg ~write] initializes the plan's write cursors, runs
    [write], and asserts the region postconditions — the shared harness for
    both the generic writer and generated specialized ones. *)
val run :
  plan ->
  Wire.Cursor.Writer.t ->
  Wire.Dyn.t ->
  write:(plan -> Wire.Cursor.Writer.t -> Wire.Dyn.t -> unit) ->
  unit

(** [deserialize ~cpu schema desc buf] rebuilds a message from a received
    object. Bytes/string fields become [Zero_copy] windows into [buf] (one
    new reference each); nothing larger than the header/tables is read.
    Raises [Malformed] on out-of-bounds offsets or bad bitmaps.

    The reference oracle only: servers, generated code and examples read
    Cornflakes frames in place with [Wire.Reader], which accepts a frame
    iff this parse does. Tests, the [exp_rx] ablation and the
    [cf-read-dyn] microbench compare the reader against it. *)
val deserialize :
  cpu:Memmodel.Cpu.t ->
  Schema.Desc.t ->
  Schema.Desc.message ->
  Mem.Pinned.Buf.t ->
  Wire.Dyn.t

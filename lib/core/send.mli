(** The combined serialize-and-send entry point (paper §3.2.3, Listing 2's
    [send_object]).

    With [config.serialize_and_send] on, the packet header, object header
    and copied fields share one staging buffer/gather entry, and zero-copy
    payloads are posted directly from the message — no intermediate
    scatter-gather array exists. With it off, Cornflakes behaves like a
    serialization library layered over an independent stack: it builds an
    object buffer, materialises a scatter-gather array, and the stack
    prepends its own header entry (one extra gather entry, one extra
    allocation — the Table 5 ablation).

    Ownership: the message's zero-copy references transfer to the stack and
    are released on TX completion; the caller must not release the message's
    payloads after a successful send. If the gather list would exceed the
    NIC's SGE limit, the smallest zero-copy payloads are transparently
    demoted to copies first; and when the endpoint reports memory pressure
    (TX ring half full — completions lost or delayed) every zero-copy
    payload is demoted, best-effort, so faulted runs degrade to the copy
    path instead of pinning unbounded references. *)

exception Message_too_large of { len : int; max : int }

(** Zero-copy payloads demoted because of endpoint memory pressure /
    demotions skipped because the arena was exhausted too (process-wide;
    harnesses snapshot deltas). *)
val pressure_demotions : unit -> int

val pressure_demotion_skips : unit -> int

val reset_counters : unit -> unit

(** [send_via config tr ~dst msg] — serialize [msg] and send it over
    any transport, charging [Net.Transport.cpu tr]: the staging buffer
    reserves [tr]'s headroom (packet header for UDP; packet + TCP headers +
    record prefix for TCP, so the stream fast path is still one gather
    entry), the size limit is the transport's, and the zero-copy array goes
    down the transport's [_zc] fast path. Ownership is identical on both datapaths from the caller's
    side; internally UDP releases references at completion, TCP at
    cumulative ACK. *)
val send_via : Config.t -> Net.Transport.t -> dst:int -> Wire.Dyn.t -> unit

(** A serializer body: {!Format_.run}'s [write] contract. *)
type writer = Format_.plan -> Wire.Cursor.Writer.t -> Wire.Dyn.t -> unit

(** [send_planned config tr ~dst msg ~write] — the same pipeline as
    {!send_via} (measure, size/SGE/pressure checks, staging, post) but with
    the serializer body supplied by the caller: generated modules pass their
    codegen-folded [write_folded] here via {!Format_.run}'s contract. [write]
    must be a top-level function (not a closure) to keep the hot path
    allocation-free. *)
val send_planned :
  Config.t ->
  Net.Transport.t ->
  dst:int ->
  Wire.Dyn.t ->
  write:writer ->
  unit

(** [send_object config ep ~dst msg] = [send_via config (Endpoint.transport
    ep)] — the historical UDP entry point (Listing 2); allocation-free, the
    endpoint's transport record is cached. *)
val send_object : Config.t -> Net.Endpoint.t -> dst:int -> Wire.Dyn.t -> unit

(** [deserialize ~cpu schema desc buf] — re-export of {!Format_.deserialize}
    for API symmetry with Listing 1. *)
val deserialize :
  cpu:Memmodel.Cpu.t ->
  Schema.Desc.t ->
  Schema.Desc.message ->
  Mem.Pinned.Buf.t ->
  Wire.Dyn.t

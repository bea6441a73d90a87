(** Serialization backends: one record per evaluated system (§6.1.3).

    Each backend knows how to send a dynamic message over a transport
    (UDP or TCP — the backend is datapath-agnostic), how to deserialize a
    received buffer, and how to wrap raw application bytes into a payload
    for an outgoing message — all three charged to the transport's meter
    ([Net.Transport.cpu]):

    - Cornflakes wraps through {!Cornflakes.Cf_ptr.make} — the hybrid
      threshold plus [recover_ptr], paying copy or refcount per field;
    - the copying libraries hold a [Literal] window and pay their copies at
      serialization time. *)

type t = {
  name : string;
  (* A fixed fact of the wire format, not an option: [true] exactly for
     Cornflakes, whose frames servers validate once and read in place
     ([Wire.Reader], the generated skeleton's [serve]); [false] for the
     baselines, whose frames only their own decoders can read ([recv]
     into a [Wire.Dyn] for [serve_dyn]). *)
  zc_rx : bool;
  send : Net.Transport.t -> dst:int -> Wire.Dyn.t -> unit;
  recv :
    Net.Transport.t -> Schema.Desc.message -> Mem.Pinned.Buf.t -> Wire.Dyn.t;
  wrap : Net.Transport.t -> Mem.View.t -> Wire.Payload.t;
}

(** [cornflakes ~config] — hybrid by default; pass
    {!Cornflakes.Config.all_copy} / [all_zero_copy] for the ablations. *)
val cornflakes : ?config:Cornflakes.Config.t -> unit -> t

val protobuf : t

val flatbuffers : t

val capnproto : t

(** [response_id t reader ~clients buf] — the request id a [Proto.resp]
    frame echoes, or [-1]; the kv and echo drivers' client-side parse,
    uncharged. Cornflakes frames are read in place through [reader] (a
    pooled [Proto.resp] reader), baseline frames through [recv] on the
    first client. Resets every client's arena. *)
val response_id :
  t ->
  Wire.Reader.t ->
  clients:Net.Transport.t list ->
  Mem.Pinned.Buf.t ->
  int

(** The four systems of the end-to-end comparisons, Cornflakes first. *)
val all : t list

val by_name : string -> t

(** Serialization backends: one record per evaluated system (§6.1.3).

    Each backend knows how to send a dynamic message over a transport
    (UDP or TCP — the backend is datapath-agnostic), how its frames are
    read, and how to wrap raw application bytes into a payload for an
    outgoing message — all charged to the transport's meter
    ([Net.Transport.cpu]):

    - Cornflakes frames have no [recv]: servers validate them once and
      read fields in place (a message's generated [In_place] reader). The
      heap parse in [Cornflakes.Format_] is only the oracle tests compare
      the reader against;
    - the copying libraries' frames only their own decoders can read:
      [recv] parses into a [Wire.Dyn], read through the message's
      generated [Parsed] accessors. A server gets one of the two from the
      message's [decoder] over {!parser} when it is built, and its
      handlers are written once against the message's [R] signature;
    - Cornflakes wraps through {!Cornflakes.Cf_ptr.make} — the hybrid
      threshold plus [recover_ptr], paying copy or refcount per field;
    - the copying libraries hold a [Literal] window and pay their copies at
      serialization time.

    [wrap] takes arbitrary bytes (a window of a receive frame, say);
    [wrap_buf] takes a pinned buffer the caller holds (a stored value) and
    must pay exactly what [wrap] pays for its view: Cornflakes goes through
    {!Cornflakes.Cf_ptr.make_buf}, which builds no view and references the
    held handle itself. Both read and train the config's policy cell: a
    policy is chosen by config, never by replacing these closures. *)

type t = {
  name : string;
  send : Net.Transport.t -> dst:int -> Wire.Dyn.t -> unit;
  (* A fixed fact of the wire format: [None] exactly for Cornflakes. *)
  recv :
    (Net.Transport.t -> Schema.Desc.message -> Mem.Pinned.Buf.t -> Wire.Dyn.t)
    option;
  wrap : Net.Transport.t -> Mem.View.t -> Wire.Payload.t;
  wrap_buf : Net.Transport.t -> Mem.Pinned.Buf.t -> Wire.Payload.t;
}

(** [cornflakes ~config] — hybrid by default; pass
    {!Cornflakes.Config.all_copy} / [all_zero_copy] for the ablations, or
    a config with a learning cell for the adaptive one. *)
val cornflakes : ?config:Cornflakes.Config.t -> unit -> t

val protobuf : t

val flatbuffers : t

val capnproto : t

(** [parser t tr desc] — the backend's own decoder of [desc] frames
    received on [tr], for a generated message's [decoder]; [None] for
    Cornflakes, whose frames are read in place. *)
val parser :
  t ->
  Net.Transport.t ->
  Schema.Desc.message ->
  (Mem.Pinned.Buf.t -> Wire.Dyn.t) option

(** [response_id t ~clients] — the kv and echo drivers' client-side
    parse, uncharged: [response_id t ~clients buf] is the request id a
    [Proto.resp] frame echoes, or [-1] (also for a frame its decoder
    rejects), and resets every client's arena. The decoder is chosen once,
    here: Cornflakes frames are read in place through a pooled reader,
    baseline frames through their [recv] on the first client. *)
val response_id :
  t -> clients:Net.Transport.t list -> Mem.Pinned.Buf.t -> int

(** The four systems of the end-to-end comparisons, Cornflakes first. *)
val all : t list

val by_name : string -> t

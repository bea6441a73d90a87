(** First-class transport abstraction over the two datapaths.

    A [Transport.t] is the socket-like handle serializers, apps, and the
    load harness talk to — the same role [Apps.Backend.t] plays for
    serialization formats. Both implementations expose the full gather
    surface, so serialize-and-send, the [_zc] array fast paths, and TX
    doorbell batching apply to either datapath:

    - [udp ep] — datagram path over [Endpoint]; segment references are
      released at NIC completion.
    - [Tcp.transport] — retransmitting stream path; the connection keeps
      its own reference per segment until the cumulative ACK covers it, so
      retransmits never read freed memory.

    Callers see one ownership rule either way: every send {e takes over}
    the caller's reference on each segment. [connect] is a no-op for UDP
    and the 3-way handshake for TCP (issue it while the engine still has
    warmup to run). The receive upcall delivers one refcounted buffer per
    message — a datagram payload, or one reassembled length-prefixed
    record for the stream path — with wire framing stripped. *)

type t = Endpoint.transport = {
  tr_name : string;
  tr_ep : Endpoint.t;
  tr_headroom : int;
  tr_max_msg_len : int;
  tr_connect : peer:int -> unit;
  tr_send_inline :
    dst:int -> segments:Mem.Pinned.Buf.t list -> unit;
  tr_send_extra :
    dst:int -> segments:Mem.Pinned.Buf.t list -> unit;
  tr_send_inline_zc :
    dst:int ->
    head:Mem.Pinned.Buf.t ->
    zc:Mem.Pinned.Buf.t array ->
    zc_n:int ->
    unit;
  tr_send_extra_zc :
    dst:int ->
    head:Mem.Pinned.Buf.t ->
    zc:Mem.Pinned.Buf.t array ->
    zc_n:int ->
    unit;
  tr_send_string : dst:int -> string -> unit;
  tr_set_rx : (src:int -> Mem.Pinned.Buf.t -> unit) -> unit;
}

(** [udp ep] — the endpoint's cached UDP transport (same record on every
    call, so routing hot paths through it allocates nothing). *)
val udp : Endpoint.t -> t

(** Constructor for new transport implementations (TCP lives in [Tcp] to
    keep dependencies acyclic; tests can build in-process fakes). *)
val make :
  name:string ->
  ep:Endpoint.t ->
  headroom:int ->
  max_msg_len:int ->
  connect:(peer:int -> unit) ->
  send_inline:
    (dst:int -> segments:Mem.Pinned.Buf.t list -> unit) ->
  send_extra:
    (dst:int -> segments:Mem.Pinned.Buf.t list -> unit) ->
  send_inline_zc:
    (dst:int ->
    head:Mem.Pinned.Buf.t ->
    zc:Mem.Pinned.Buf.t array ->
    zc_n:int ->
    unit) ->
  send_extra_zc:
    (dst:int ->
    head:Mem.Pinned.Buf.t ->
    zc:Mem.Pinned.Buf.t array ->
    zc_n:int ->
    unit) ->
  send_string:(dst:int -> string -> unit) ->
  set_rx:((src:int -> Mem.Pinned.Buf.t -> unit) -> unit) ->
  t

val name : t -> string

(** Underlying endpoint: arena, NIC/ring counters, pressure signal. *)
val endpoint : t -> Endpoint.t

(** [arena t] = [Endpoint.arena (endpoint t)]. *)
val arena : t -> Mem.Arena.t

(** [cpu t] = [Endpoint.cpu (endpoint t)]: the meter every send through
    [t], and every layer built over [t], charges. *)
val cpu : t -> Memmodel.Cpu.t

(** Scratch bytes to leave at the front of the first inline gather
    segment; the transport writes its headers/framing there. *)
val headroom : t -> int

val max_msg_len : t -> int

val connect : t -> peer:int -> unit

val send_inline :
  t -> dst:int -> segments:Mem.Pinned.Buf.t list -> unit

val send_extra :
  t -> dst:int -> segments:Mem.Pinned.Buf.t list -> unit

val send_inline_zc :
  t ->
  dst:int ->
  head:Mem.Pinned.Buf.t ->
  zc:Mem.Pinned.Buf.t array ->
  zc_n:int ->
  unit

val send_extra_zc :
  t ->
  dst:int ->
  head:Mem.Pinned.Buf.t ->
  zc:Mem.Pinned.Buf.t array ->
  zc_n:int ->
  unit

val send_string : t -> dst:int -> string -> unit

val set_rx : t -> (src:int -> Mem.Pinned.Buf.t -> unit) -> unit

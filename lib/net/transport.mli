(** First-class transport abstraction over the two datapaths.

    A [Transport.t] is the socket-like handle serializers, apps, and the
    load harness talk to — the same role [Apps.Backend.t] plays for
    serialization formats. Both implementations take the one transmit
    gather shape — a [head] buffer plus the first [zc_n] slots of a
    zero-copy array [zc] — so serialize-and-send and TX doorbell batching
    apply to either datapath:

    - [Endpoint.transport ep] — datagram path over [Endpoint]; segment
      references are released at NIC completion.
    - [Tcp.transport] — retransmitting stream path; the connection keeps
      its own reference per segment until the cumulative ACK covers it, so
      retransmits never read freed memory.

    Callers see one ownership rule either way: every send {e takes over}
    the caller's reference on [head] and on each of the [zc_n] zero-copy
    segments. [connect] is a no-op for UDP and the 3-way handshake for TCP
    (issue it while the engine still has warmup to run). The receive
    upcall delivers one refcounted buffer per message — a datagram
    payload, or one reassembled length-prefixed record for the stream
    path — with wire framing stripped. *)

type t = Endpoint.transport = {
  tr_name : string;
  tr_ep : Endpoint.t;
  tr_headroom : int;
  tr_max_msg_len : int;
  tr_connect : peer:int -> unit;
  tr_send_inline :
    dst:int ->
    head:Mem.Pinned.Buf.t ->
    zc:Mem.Pinned.Buf.t array ->
    zc_n:int ->
    unit;
  tr_send_extra :
    dst:int ->
    head:Mem.Pinned.Buf.t ->
    zc:Mem.Pinned.Buf.t array ->
    zc_n:int ->
    unit;
  tr_send_string : dst:int -> string -> unit;
  tr_set_rx : (src:int -> Mem.Pinned.Buf.t -> unit) -> unit;
}

val name : t -> string

(** Underlying endpoint: arena, NIC/ring counters, pressure signal. *)
val endpoint : t -> Endpoint.t

(** [arena t] = [Endpoint.arena (endpoint t)]. *)
val arena : t -> Mem.Arena.t

(** [cpu t] = [Endpoint.cpu (endpoint t)]: the meter every send through
    [t], and every layer built over [t], charges. *)
val cpu : t -> Memmodel.Cpu.t

(** Scratch bytes to leave at the front of [send_inline]'s [head]; the
    transport writes its headers/framing there. *)
val headroom : t -> int

val max_msg_len : t -> int

val connect : t -> peer:int -> unit

(** [send_inline t ~dst ~head ~zc ~zc_n] — serialize-and-send: [head]
    starts with [headroom t] scratch bytes for the transport's headers and
    framing, followed by the object bytes; [zc.(0) .. zc.(zc_n - 1)] ride
    as further gather entries. Raises [Invalid_argument] if [head] is
    shorter than [headroom t]. *)
val send_inline :
  t ->
  dst:int ->
  head:Mem.Pinned.Buf.t ->
  zc:Mem.Pinned.Buf.t array ->
  zc_n:int ->
  unit

(** [send_extra t ~dst ~head ~zc ~zc_n] — the conventional path: every byte
    of [head] and of the zero-copy segments is payload; the transport adds
    its headers as a separate entry. *)
val send_extra :
  t ->
  dst:int ->
  head:Mem.Pinned.Buf.t ->
  zc:Mem.Pinned.Buf.t array ->
  zc_n:int ->
  unit

val send_string : t -> dst:int -> string -> unit

val set_rx : t -> (src:int -> Mem.Pinned.Buf.t -> unit) -> unit

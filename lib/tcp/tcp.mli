(** Simplified Demikernel-style TCP over the kernel-bypass endpoint (§6.2.3).

    What matters for the paper's Figure 9 and for zero-copy safety:

    - {b Byte stream with record framing}: [Conn.send_message] writes a
      [u32 length]-prefixed record; the receiver delivers complete messages.
      A message that arrives in order within one frame is delivered as a
      zero-copy window into the receive buffer; otherwise it is reassembled.
    - {b Zero-copy transmission holds references until ACK}: unlike UDP,
      where buffers are released at DMA completion, TCP must be able to
      retransmit, so every in-flight frame keeps its own reference on each
      gather segment until the cumulative ACK covers it.
    - {b Retransmission}: adaptive RTO from a smoothed RTT estimate
      (RFC 6298 style, Karn's rule, exponential backoff), fast retransmit
      on three duplicate ACKs, cumulative ACKs, out-of-order reassembly.
      A three-way handshake establishes sequence numbers.

    Message data is described with the shared {!Wire.Payload.t} gather
    representation ([Copied]/[Literal] runs are staged into frame buffers;
    [Zero_copy] buffers ride as their own gather entries, reference
    consumed). [transport] exposes a stack as a {!Net.Transport.t}, so
    serialize-and-send, the [_zc] array fast paths, and TX doorbell
    batching all apply to TCP frames; its single-frame fast path sends
    packet header + TCP header + record prefix + object bytes as one
    gather entry and falls back to [Conn.send_message] segmentation for
    records above the MSS or connections still in the handshake.

    One [Stack.t] owns an endpoint's receive path and demultiplexes
    connections by peer id. ACK processing and reassembly are protocol
    work outside any request's service window and are not CPU-charged;
    serialization costs on the send path are charged as usual. *)

module Conn : sig
  type t

  val peer : t -> int

  val is_established : t -> bool

  (** [send_message t payloads] frames the concatenated payloads as
      one record and transmits it (segmenting at the MSS if needed). Takes
      ownership of one reference on each [Zero_copy] payload; [Copied] and
      [Literal] views are staged immediately. Messages sent during the
      handshake are queued and flushed on establishment; raises
      [Invalid_argument] on a closed connection. *)
  val send_message : t -> Wire.Payload.t list -> unit

  (** Bytes sent but not yet acknowledged. *)
  val unacked_bytes : t -> int

  val retransmissions : t -> int

  (** Current retransmission timeout (adapts to measured RTT, RFC 6298
      style, with exponential backoff on loss). *)
  val rto_ns : t -> int

  (** Smoothed RTT estimate in ns (0 until the first sample). *)
  val srtt_ns : t -> float
end

module Stack : sig
  type t

  (** [attach ep] takes over [ep]'s receive path. *)
  val attach : Net.Endpoint.t -> t

  (** [connect t ~peer] initiates a handshake; the connection becomes
      established once the SYN-ACK returns. Idempotent per peer. *)
  val connect : t -> peer:int -> Conn.t

  (** Handler for complete received messages. The buffer carries one
      reference owned by the handler. *)
  val set_on_message : t -> (Conn.t -> Mem.Pinned.Buf.t -> unit) -> unit

  val conn : t -> peer:int -> Conn.t option

  val endpoint : t -> Net.Endpoint.t
end

(** [transport stack] — the stack as a {!Net.Transport.t} (cached; one
    record per stack). Destination ids map to connections, opened on first
    use — call {!Net.Transport.connect} during warmup to keep the 3-way
    handshake out of measured windows. A connection that died of retry
    exhaustion is transparently reopened on the next send. Ownership seen
    by callers is identical to UDP (each send takes over the caller's
    segment references); internally the references live until cumulative
    ACK, not DMA completion. *)
val transport : Stack.t -> Net.Transport.t

(** Protocol constants, exposed for tests. *)
val header_len : int

val mss : int

val initial_rto_ns : int

(** Bytes of the [u32] record-length prefix ([transport]'s framing). *)
val record_prefix_len : int

(** Headroom [transport] requires in the first inline gather segment:
    packet header + TCP header + record prefix. *)
val transport_headroom : int

(** Largest record [transport] will carry (the reassembly cap). *)
val max_msg_len : int

(** Kernel-bypass UDP endpoint: the networking half of the co-design.

    Owns a NIC, pinned staging pools, and a receive path that delivers
    packets as refcounted buffers ([Listing 2] of the paper: [alloc],
    [recv_packet] as the rx handler, [recover_ptr] via the registry). Two
    pairs of send entry points encode the paper's §6.5.2 comparison:

    - [send_inline_header] / [send_inline_zc]: serialize-and-send. The
      caller built the first segment with [Packet.header_len] bytes of
      headroom; the stack writes the packet header there, so object header
      + copied fields + packet header share one gather entry.
    - [send_extra_header] / [send_extra_zc]: the conventional path. The
      stack allocates a separate header-only entry and prepends it, costing
      one more gather entry and one more allocation.

    The [_header] variants take the gather list as an OCaml list; the [_zc]
    variants (PR 4's serializer fast paths) take [head] plus the measured
    plan's zero-copy {e array} and fill the NIC's reusable transmit
    descriptor in place — no per-send segment list is ever built, which is
    what keeps the serialize-and-send hot path allocation-free.

    TX doorbell coalescing: every send path routes descriptors through the
    same batching layer. [config.tx_batch] descriptors share one doorbell
    (a partial batch flushes after [tx_batch_timeout_ns], or explicitly via
    [flush_tx]); [tx_batch = 1] rings per send, and the default [tx_batch =
    0] means "follow [set_default_tx_batch]'s process-wide setting", itself
    1 unless a harness raises it.

    Ownership: the stack takes over the caller's reference on every segment
    and releases it when the NIC completion fires — the use-after-free
    guarantee. Completion-side refcount work is pre-charged at post time so
    per-request service times include it. *)

type t

(** First-class transport handle: the socket-like surface the serializers
    and load harness talk to, so the copy/zero-copy decision lives behind
    one API regardless of datapath (mirrors how [Apps.Backend.t] abstracts
    serializers). Implemented by this module for UDP (see [transport]) and
    by [Tcp.transport] for the retransmitting stream path. The ownership
    contract differs per implementation — UDP releases segment references
    at NIC completion; TCP holds its own reference per segment until the
    cumulative ACK covers it — but callers see one rule: the transport
    takes over the caller's reference on every segment passed to a send. *)
type transport = {
  tr_name : string;
  tr_ep : t;  (** underlying endpoint (arena, NIC counters, pressure) *)
  tr_headroom : int;
      (** scratch bytes the caller must leave at the front of the first
          gather segment of [tr_send_inline] / [tr_send_inline_zc]; the
          transport writes its headers (and any framing) there *)
  tr_max_msg_len : int;
      (** largest message the transport can carry ([Packet.max_payload]
          for datagrams; the reassembly cap for stream transports) *)
  tr_connect : peer:int -> unit;
      (** establish a path to [peer] (no-op for UDP; 3-way handshake for
          TCP — drive the engine afterwards, e.g. during warmup) *)
  tr_send_inline : dst:int -> segments:Mem.Pinned.Buf.t list -> unit;
  tr_send_extra : dst:int -> segments:Mem.Pinned.Buf.t list -> unit;
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
      (** register the message upcall: one refcounted buffer per delivered
          message (datagram payload, or one reassembled record for stream
          transports), header/framing stripped; the handler owns the
          reference *)
}

(** The endpoint's UDP transport view. Cached on the endpoint (one record
    per endpoint, allocated on first use), so hot send paths that go
    through the transport stay allocation-free. *)
val transport : t -> transport

type config = {
  nic_model : Nic.Model.t;
  tx_class_capacity : int; (* staging buffers per power-of-two class *)
  rx_capacity : int; (* jumbo receive buffers *)
  arena_capacity : int;
  tx_batch : int;
      (* TX doorbell coalescing: descriptors per doorbell. 1 = ring per
         send (the classic behavior); 0 = follow [set_default_tx_batch]'s
         process-wide default (itself 1 unless changed). *)
  tx_batch_timeout_ns : int;
      (* flush-on-idle: a partial batch leaves after this long *)
}

val default_config : config

(** Process-wide default batch size used by endpoints whose config says
    [tx_batch = 0]; clamped to >= 1. Set before driving traffic. *)
val set_default_tx_batch : int -> unit

(** [create ~cpu ?nic ?config fabric registry ~id] — [cpu] is the
    endpoint's meter: every send, TX allocation, receive charge and DDIO
    install on this endpoint is charged to it ([Memmodel.Cpu.none] for an
    endpoint the simulation does not meter, such as a load-generator
    client). Pass [nic] to share one NIC device between several endpoints
    (multicore experiments: cores share the port's line rate and DMA
    pipeline). *)
val create :
  cpu:Memmodel.Cpu.t ->
  ?nic:Nic.Device.t ->
  ?config:config ->
  Fabric.t ->
  Mem.Registry.t ->
  id:int ->
  t

val id : t -> int

val engine : t -> Sim.Engine.t

val registry : t -> Mem.Registry.t

(** The meter the endpoint was created with. *)
val cpu : t -> Memmodel.Cpu.t

val nic : t -> Nic.Device.t

(** Per-request arena for copied serialization data; the request harness
    resets it between requests. *)
val arena : t -> Mem.Arena.t

(** True when the TX ring is at least half full — completions are not
    keeping up (lost/delayed CQEs, wire backlog), so zero-copy payload
    references would stay pinned for a long time. The send path uses this
    to demote zero-copy fields to arena copies; healthy runs never
    trigger it. *)
val under_pressure : t -> bool

(** [alloc_tx ?site t ~len] takes a staging buffer from the TX pool.
    [site] labels the allocation in RefSan reports. *)
val alloc_tx : ?site:string -> t -> len:int -> Mem.Pinned.Buf.t

(** [send_inline_header t ~dst ~segments] — see module doc. The first
    segment's initial [Packet.header_len] bytes are overwritten. *)
val send_inline_header :
  t -> dst:int -> segments:Mem.Pinned.Buf.t list -> unit

(** [alloc_tx] and [send_inline_header] charged to [cpu] instead of the
    endpoint's meter. TCP posts its ACKs and retransmissions on
    [Memmodel.Cpu.none]: the simulation does not CPU-charge TCP protocol
    work. *)
val alloc_tx_on :
  cpu:Memmodel.Cpu.t -> ?site:string -> t -> len:int -> Mem.Pinned.Buf.t

val send_inline_header_on :
  cpu:Memmodel.Cpu.t ->
  t ->
  dst:int ->
  segments:Mem.Pinned.Buf.t list ->
  unit

(** [send_extra_header t ~dst ~segments] — see module doc. *)
val send_extra_header :
  t -> dst:int -> segments:Mem.Pinned.Buf.t list -> unit

(** Array-based serializer fast paths: [send_inline_zc] /
    [send_extra_zc] behave exactly like their [_header] counterparts on
    [head :: zc.(0) .. zc.(zc_n - 1)], but fill the NIC's reusable
    descriptor straight from the plan's zero-copy array — no per-send
    segment list is built. Slots of [zc] at index [>= zc_n] are ignored. *)
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

(** [send_string t ~dst s] — uncharged convenience for load generators:
    copies [s] into a staging buffer and sends it. *)
val send_string : t -> dst:int -> string -> unit

(** [set_rx t f] registers the receive upcall. [f ~src buf] receives the
    payload (header stripped) as a refcounted buffer with one reference that
    the handler must eventually release. *)
val set_rx : t -> (src:int -> Mem.Pinned.Buf.t -> unit) -> unit

(** Send holds. The request harness executes a handler at simulated time T
    to *measure* its service time dt, but the responses it produced must not
    reach the NIC before T+dt. [begin_hold] buffers descriptor posts;
    [release_hold ~after] replays them [after] ns later (order preserved).
    CPU costs are charged at call time either way. Raises
    [Invalid_argument] on a nested hold or a release without one. *)
val begin_hold : t -> unit

val release_hold : t -> after:int -> unit

(** The two halves of {!release_hold}, for a caller that schedules the
    replay in an event of its own: [end_hold t] ends the hold and sets the
    held posts aside; [submit_deferred t] posts them. At most one set may
    be aside at a time: [end_hold] raises [Invalid_argument] if the
    previous set has not been submitted. *)
val end_hold : t -> unit

val submit_deferred : t -> unit

(** Software receive-path cost (parse + steering), charged to the
    endpoint's meter by the request harness when it dequeues a packet. *)
val charge_rx : t -> unit

(** Post any coalesced TX descriptors waiting for a full batch now, without
    waiting for the flush timer. No-op when nothing is pending. *)
val flush_tx : t -> unit

val rx_packets : t -> int

(** Frames dropped because no receive buffer was available (host overload). *)
val rx_dropped : t -> int

val rx_bytes : t -> int

(** Deliveries the application still pins (held buffers or retained
    [Wire.Rc_view]s): RX ring slots that cannot serve new frames until
    their refcount hits zero. *)
val rx_outstanding : t -> int

val tx_packets : t -> int

val tx_bytes : t -> int

(** Doorbell rings on this endpoint's NIC (shared-NIC setups count all
    endpoints on the device). *)
val doorbells : t -> int

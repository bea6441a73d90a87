(** Simulated NIC device: TX descriptor ring + DMA/wire engine.

    The CPU-side cost of *posting* a send (writing ring entries, ringing the
    doorbell) is charged by the networking stack; this module models the
    device side: per-descriptor and per-gather-entry PCIe time, line-rate
    serialization, and completion delivery. Completions run the descriptor's
    callback, which is where the stack releases buffer references — i.e. the
    point until which zero-copy memory must stay alive. *)

exception Too_many_segments of { requested : int; limit : int }

exception Ring_full

type t

(** Reusable transmit descriptor: a preallocated gather array refilled in
    place per send. Acquired from the device's free stack, filled with
    {!txd_push}, posted with {!post_txd} / {!post_txd_batch}, and recycled
    automatically when its completion delivers — so the steady-state send
    path builds no per-send segment lists. The poster may set a per-segment
    release function (one long-lived closure) via {!txd_set_release}; it
    runs for each segment when the completion fires, before the callback
    set by {!txd_set_done} (if any). *)
type txd

val create : Sim.Engine.t -> model:Model.t -> t

val model : t -> Model.t

(** [txd_acquire t] takes a descriptor from the free stack (or allocates a
    fresh one the first few times). The caller must eventually pass it to
    {!post_txd} / {!post_txd_batch}; descriptors return to the stack at
    completion. *)
val txd_acquire : t -> txd

(** [txd_push txd buf] appends a gather entry. The descriptor owns the
    caller's reference on [buf] until its release function runs. *)
val txd_push : txd -> Mem.Pinned.Buf.t -> unit

val txd_set_release : txd -> (Mem.Pinned.Buf.t -> unit) -> unit

val txd_set_done : txd -> (unit -> unit) -> unit

(** Number of gather entries pushed so far. *)
val txd_len : txd -> int

(** [post_txd t txd] enqueues a send. Raises [Too_many_segments] if the
    gather list exceeds the model's SGE limit, [Ring_full] if the device
    backlog exceeds the ring size. Gathers the segment bytes (device DMA —
    not CPU time), transmits at line rate, then completes the descriptor. *)
val post_txd : t -> txd -> unit

(** [post_txd_batch t txds ~n] posts the first [n] slots of [txds] under a
    single doorbell: the first pays the full per-descriptor PCIe fetch, the
    rest only their per-SGE fetches, and completions are coalesced into one
    CQE event at the last packet's finish time. Packets still egress (and
    reach the fabric) at their individual finish times. Raises [Ring_full]
    if the whole batch does not fit. The slots are snapshotted before
    returning, so the caller may reuse the array for the next batch
    immediately. *)
val post_txd_batch : t -> txd array -> n:int -> unit

(** Egress frame handed to the {!set_on_wire} hook: the device's pooled
    payload snapshot. The consumer owns one reference and must call
    {!wire_release} exactly once per reference when it is done with the
    frame (after the last delivery for a fabric); {!wire_retain} takes an
    extra reference before duplicating delivery. The bytes window
    [{!wire_bytes} w][0 .. {!wire_len} w) is read-only and must not be
    stashed past release — the device recycles the buffer for a later
    packet. *)
type wire

(** Backing bytes of the frame; only the first {!wire_len} bytes are the
    packet (the buffer's capacity is rounded up for pooling). *)
val wire_bytes : wire -> Bytes.t

val wire_len : wire -> int

val wire_retain : wire -> unit

val wire_release : wire -> unit

(** [wire_arrive_after w ~after f] schedules [f w] [after] ns from now
    through the frame's own arrival continuation, which is built once with
    the frame, so the hop schedules no fresh closure. Every arrival of one
    frame still pending runs the most recently set [f]: a carrier that
    delivers a frame twice must deliver both copies to the same receiver. *)
val wire_arrive_after : wire -> after:int -> (wire -> unit) -> unit

(** [set_on_wire t f] registers the fabric hook: [f frame] is called when a
    packet's last bit leaves the NIC, with the gathered wire bytes. The
    default hook releases the frame immediately (dropped on the floor). *)
val set_on_wire : t -> (wire -> unit) -> unit

(** Number of descriptors queued but not yet completed. *)
val in_flight : t -> int

(** Receive queue: one per attached endpoint (a device shared across cores
    carries one rxq per core, like a multi-queue NIC under RSS). The ring
    is backed by a pinned pool: posting a receive buffer IS allocating from
    the pool, and a delivered buffer's slot returns to the ring only when
    its refcount reaches zero — outstanding [Wire.Rc_view]s each hold a
    reference, so held views keep ring slots pinned. *)
type rxq

(** [attach_rx ~cpu t pool] registers a receive ring backed by [pool].
    [cpu] receives the DDIO cache installs for delivered frames. *)
val attach_rx : cpu:Memmodel.Cpu.t -> t -> Mem.Pinned.Pool.t -> rxq

(** [rx_deliver q bytes ~off ~len ~src ~deliver] DMAs
    [bytes[off, off+len)] into a posted receive buffer and passes it to
    [deliver ~src] with the delivery reference (refcount 1); the consumer
    must [decr_ref] when done (directly or by handing the last [Rc_view]
    back). On an RX ring overrun — no free buffer was posted — the frame is
    dropped and counted instead, and [deliver] does not run. No CPU cycles
    are charged: the device does the write. *)
val rx_deliver :
  rxq ->
  Bytes.t ->
  off:int ->
  len:int ->
  src:int ->
  deliver:(src:int -> Mem.Pinned.Buf.t -> unit) ->
  unit

val rxq_packets : rxq -> int

val rxq_bytes : rxq -> int

val rxq_dropped : rxq -> int

(** Deliveries (and views over them) the application still pins: ring
    slots that cannot serve new frames until their refcount hits zero. *)
val rx_outstanding : rxq -> int

(** Aggregates over every attached receive queue. *)
val rx_packets : t -> int

val rx_bytes : t -> int

val rx_dropped : t -> int

(** Fault injection: consulted once per CQE that is due ([post_txd] CQEs
    cover one descriptor, [post_txd_batch] CQEs the whole batch). [`Lose]
    stashes the completion — ring slots stay occupied and segment
    references (and RefSan holds) stay pinned until {!reap_lost};
    [`Delay d] delivers it [d] ns late. Egress is unaffected: the packet
    still reaches the fabric. *)
type completion_fault = now:int -> [ `Lose | `Delay of int ] option

val set_completion_fault : t -> completion_fault option -> unit

(** Deliver every stashed lost completion now (releasing ring slots,
    holds, and callbacks); returns how many descriptors were recovered.
    Models a driver's periodic TX-ring reap. *)
val reap_lost : t -> int

(** Descriptors whose CQE was injected as lost / delayed / later
    recovered by {!reap_lost}. *)
val lost_completions : t -> int

val delayed_completions : t -> int

val reaped_completions : t -> int

(** Total packets and payload bytes transmitted. *)
val tx_packets : t -> int

val tx_bytes : t -> int

(** Doorbell rings so far ([post_txd] counts one each; [post_txd_batch]
    one per batch). *)
val doorbells : t -> int

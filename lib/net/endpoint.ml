type config = {
  nic_model : Nic.Model.t;
  tx_class_capacity : int;
  rx_capacity : int;
  arena_capacity : int;
  tx_batch : int;
  tx_batch_timeout_ns : int;
}

let default_config =
  {
    nic_model = Nic.Model.mellanox_cx6;
    tx_class_capacity = 2048;
    rx_capacity = 4096;
    arena_capacity = 1 lsl 20;
    tx_batch = 0;
    tx_batch_timeout_ns = 500;
  }

(* Consulted when [config.tx_batch = 0]; the bench harness flips it to turn
   doorbell coalescing on fleet-wide without threading a config through
   every rig constructor. *)
let default_tx_batch = Atomic.make 1

let set_default_tx_batch n = Atomic.set default_tx_batch (max 1 n)

type t = {
  id : int;
  fabric : Fabric.t;
  registry : Mem.Registry.t;
  cpu : Memmodel.Cpu.t;
  nic : Nic.Device.t;
  config : config;
  tx_pool : Mem.Pinned.Pool.t;
  rx_pool : Mem.Pinned.Pool.t;
  rxq : Nic.Device.rxq; (* receive ring over [rx_pool] on [nic] *)
  arena : Mem.Arena.t;
  mutable rx_handler : src:int -> Mem.Pinned.Buf.t -> unit;
  (* Send hold (see [begin_hold]): posts queue in [held] while [holding];
     a release moves them to [deferred] until [submit_deferred] runs. Both
     are reusable scratch arrays, first [_n] slots live. *)
  mutable holding : bool;
  mutable held : Nic.Device.txd array;
  mutable held_n : int;
  mutable deferred : Nic.Device.txd array;
  mutable deferred_n : int;
  (* Coalesced posts parked for the next doorbell: a reusable scratch array
     (first [pending_n] slots live) — no per-batch list is built. *)
  mutable pending_txds : Nic.Device.txd array;
  mutable pending_n : int;
  mutable flush_scheduled : bool;
  (* Event continuations, built once with the endpoint. *)
  flush_k : unit -> unit; (* the batch-timeout flush *)
  submit_deferred_k : unit -> unit; (* a [release_hold ~after] replay *)
  (* Lazily built, cached UDP transport record (see [Transport]): hot send
     paths reach the datagram surfaces through the shared abstraction
     without allocating a record of closures per message. *)
  mutable udp_transport : transport option;
}

and transport = {
  tr_name : string;
  tr_ep : t;
  (* Scratch bytes the caller must leave at the front of the first gather
     segment of [tr_send_inline] / [tr_send_inline_zc]: the transport
     writes its headers (and any framing) there, so object header + copied
     fields + wire headers share one gather entry. *)
  tr_headroom : int;
  (* Largest message the transport can carry ([Packet.max_payload] for
     datagrams; the reassembly cap for stream transports). *)
  tr_max_msg_len : int;
  tr_connect : peer:int -> unit;
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
}

let tx_batch t = if t.config.tx_batch > 0 then t.config.tx_batch else Atomic.get default_tx_batch

let engine t = Fabric.engine t.fabric

let handle_wire t frame =
  let bytes = Nic.Device.wire_bytes frame in
  let frame_len = Nic.Device.wire_len frame in
  let src = Packet.src_of_bytes bytes ~len:frame_len in
  let payload_len = frame_len - Packet.header_len in
  if payload_len > 0 then
    (* The frame is the sender device's pooled snapshot, valid only for
       this call — the device DMAs it into a posted receive buffer now,
       before the fabric releases it. The handler receives the delivery
       reference; the ring slot recycles when the refcount hits zero
       (i.e. after the handler and every retained view release). Drops
       (ring overrun) are counted inside the queue. *)
    Nic.Device.rx_deliver t.rxq bytes ~off:Packet.header_len ~len:payload_len
      ~src ~deliver:t.rx_handler

let id t = t.id

let registry t = t.registry

let cpu t = t.cpu

let nic t = t.nic

let arena t = t.arena

(* Memory-pressure signal for zero-copy demotion: the TX ring filling up
   means completions are late (lost, delayed, or the wire is backed up),
   so zero-copy payload references would be pinned for a long time. A
   half-full ring never happens in a healthy run (steady-state occupancy
   is a handful of descriptors), so the signal is quiet unless something
   is actually wrong. *)
let under_pressure t =
  2 * Nic.Device.in_flight t.nic >= (Nic.Device.model t.nic).Nic.Model.tx_ring_entries

let alloc_tx_on ~cpu ?(site = "Endpoint.alloc_tx") t ~len =
  Mem.Pinned.Buf.alloc ~cpu ~site t.tx_pool ~len

let alloc_tx ?site t ~len = alloc_tx_on ~cpu:t.cpu ?site t ~len

(* Ring-entry writes, doorbell, and the completion-side processing
   (descriptor reap + reference releases) pre-charged per packet. With
   doorbell coalescing the MMIO write is shared by the whole batch, so each
   send is charged its amortized share. *)
let charge_post ~cpu t ~nsge =
  Memmodel.Cpu.charge_post cpu ~nsge ~batch:(tx_batch t)

(* One long-lived release closure shared by every descriptor: the stack's
   reference on each segment is dropped when the NIC completion fires;
   charged at post time. *)
let release_seg buf =
  Mem.Pinned.Buf.decr_ref ~cpu:Memmodel.Cpu.none ~site:"Nic.complete" buf

let acquire_txd t =
  let txd = Nic.Device.txd_acquire t.nic in
  Nic.Device.txd_set_release txd release_seg;
  txd

(* [arr] with room for an element at [n], grown by doubling when full. *)
let room arr n txd =
  if n < Array.length arr then arr
  else begin
    let grown = Array.make (max 8 (2 * n)) txd in
    Array.blit arr 0 grown 0 n;
    grown
  end

let pending_park t txd =
  t.pending_txds <- room t.pending_txds t.pending_n txd;
  t.pending_txds.(t.pending_n) <- txd;
  t.pending_n <- t.pending_n + 1

let flush_tx t =
  if t.pending_n > 0 then begin
    let n = t.pending_n in
    t.pending_n <- 0;
    Nic.Device.post_txd_batch t.nic t.pending_txds ~n
  end

(* Route one descriptor to the NIC: straight through when unbatched (the
   pre-coalescing behavior, event-for-event), else park it until the batch
   fills or the flush timer fires — so a lone send on an idle endpoint still
   leaves within [tx_batch_timeout_ns]. *)
let submit t txd =
  if tx_batch t <= 1 then Nic.Device.post_txd t.nic txd
  else begin
    pending_park t txd;
    if t.pending_n >= tx_batch t then flush_tx t
    else if not t.flush_scheduled then begin
      t.flush_scheduled <- true;
      Sim.Engine.schedule (engine t) ~after:t.config.tx_batch_timeout_ns
        t.flush_k
    end
  end

let post t txd =
  if t.holding then begin
    t.held <- room t.held t.held_n txd;
    t.held.(t.held_n) <- txd;
    t.held_n <- t.held_n + 1
  end
  else submit t txd

let submit_deferred t =
  let n = t.deferred_n in
  t.deferred_n <- 0;
  for i = 0 to n - 1 do
    submit t t.deferred.(i)
  done

let create ~cpu ?nic ?(config = default_config) fabric registry ~id =
  let space = Mem.Registry.space registry in
  let tx_pool =
    Mem.Pinned.Pool.create space
      ~name:(Printf.sprintf "ep%d-tx" id)
      ~classes:
        (List.map
           (fun size -> (size, config.tx_class_capacity))
           [ 64; 128; 256; 512; 1024; 2048; 4096; 8192; 16384 ])
  in
  let rx_pool =
    Mem.Pinned.Pool.create space
      ~name:(Printf.sprintf "ep%d-rx" id)
      ~classes:[ (16384, config.rx_capacity) ]
  in
  Mem.Registry.register registry tx_pool;
  Mem.Registry.register registry rx_pool;
  let nic =
    match nic with
    | Some nic -> nic
    | None -> Nic.Device.create (Fabric.engine fabric) ~model:config.nic_model
  in
  let rec t =
    {
      id;
      fabric;
      registry;
      cpu;
      nic;
      config;
      tx_pool;
      rx_pool;
      rxq = Nic.Device.attach_rx ~cpu nic rx_pool;
      arena = Mem.Arena.create space ~capacity:config.arena_capacity;
      rx_handler =
        (fun ~src:_ buf ->
          Mem.Pinned.Buf.decr_ref ~cpu:Memmodel.Cpu.none
            ~site:"Endpoint.rx_default_drop" buf);
      holding = false;
      held = [||];
      held_n = 0;
      deferred = [||];
      deferred_n = 0;
      pending_txds = [||];
      pending_n = 0;
      flush_scheduled = false;
      flush_k =
        (fun () ->
          t.flush_scheduled <- false;
          flush_tx t);
      submit_deferred_k = (fun () -> submit_deferred t);
      udp_transport = None;
    }
  in
  Nic.Device.set_on_wire nic (fun frame -> Fabric.inject fabric frame);
  Fabric.attach fabric ~id ~rx:(fun frame -> handle_wire t frame);
  t

let write_header ~cpu t ~dst buf =
  Packet.write_header
    (Mem.Pinned.Buf.backing buf)
    ~off:(Mem.Pinned.Buf.backing_off buf)
    ~src:t.id ~dst;
  Mem.Pinned.Buf.note_write ~site:"Endpoint.write_header" buf ~off:0
    ~len:Packet.header_len;
  Memmodel.Cpu.stream cpu Memmodel.Cpu.Tx ~addr:(Mem.Pinned.Buf.addr buf)
    ~len:Packet.header_len

let send_inline_header_on ~cpu t ~dst ~segments =
  match segments with
  | [] -> invalid_arg "Endpoint.send_inline_header: no segments"
  | first :: _ ->
      if Mem.Pinned.Buf.len first < Packet.header_len then
        invalid_arg "Endpoint.send_inline_header: no header headroom";
      write_header ~cpu t ~dst first;
      charge_post ~cpu t ~nsge:(List.length segments);
      let txd = acquire_txd t in
      List.iter (Nic.Device.txd_push txd) segments;
      post t txd

let send_inline_header t ~dst ~segments =
  send_inline_header_on ~cpu:t.cpu t ~dst ~segments

let send_extra_header t ~dst ~segments =
  let cpu = t.cpu in
  let hdr =
    Mem.Pinned.Buf.alloc ~cpu ~site:"Endpoint.send_extra_header" t.tx_pool
      ~len:Packet.header_len
  in
  write_header ~cpu t ~dst hdr;
  charge_post ~cpu t ~nsge:(1 + List.length segments);
  let txd = acquire_txd t in
  Nic.Device.txd_push txd hdr;
  List.iter (Nic.Device.txd_push txd) segments;
  post t txd

(* Array-based serializer fast paths: gather entries come straight from the
   measured plan's zero-copy array (first [zc_n] slots of [zc]), filling a
   reusable NIC descriptor in place — no per-send segment list. *)
let send_inline_zc t ~dst ~head ~zc ~zc_n =
  if Mem.Pinned.Buf.len head < Packet.header_len then
    invalid_arg "Endpoint.send_inline_zc: no header headroom";
  write_header ~cpu:t.cpu t ~dst head;
  charge_post ~cpu:t.cpu t ~nsge:(1 + zc_n);
  let txd = acquire_txd t in
  Nic.Device.txd_push txd head;
  for i = 0 to zc_n - 1 do
    Nic.Device.txd_push txd zc.(i)
  done;
  post t txd
[@@alloc_free]

let send_extra_zc t ~dst ~head ~zc ~zc_n =
  let cpu = t.cpu in
  let hdr =
    Mem.Pinned.Buf.alloc ~cpu ~site:"Endpoint.send_extra_header" t.tx_pool
      ~len:Packet.header_len
  in
  write_header ~cpu t ~dst hdr;
  charge_post ~cpu t ~nsge:(2 + zc_n);
  let txd = acquire_txd t in
  Nic.Device.txd_push txd hdr;
  Nic.Device.txd_push txd head;
  for i = 0 to zc_n - 1 do
    Nic.Device.txd_push txd zc.(i)
  done;
  post t txd
[@@alloc_free]

let send_string t ~dst s =
  let cpu = Memmodel.Cpu.none in
  let buf =
    alloc_tx_on ~cpu ~site:"Endpoint.send_string" t
      ~len:(Packet.header_len + String.length s)
  in
  let v = Mem.Pinned.Buf.view buf in
  Bytes.blit_string s 0 v.Mem.View.data
    (v.Mem.View.off + Packet.header_len)
    (String.length s);
  Mem.Pinned.Buf.note_write ~site:"Endpoint.send_string" buf
    ~off:Packet.header_len ~len:(String.length s);
  send_inline_header_on ~cpu t ~dst ~segments:[ buf ]

let set_rx t f = t.rx_handler <- f

let begin_hold t =
  if t.holding then invalid_arg "Endpoint.begin_hold: already holding";
  t.holding <- true

(* The held posts become the deferred set; the arrays swap, so neither is
   copied. *)
let end_hold t =
  if not t.holding then invalid_arg "Endpoint.end_hold: not holding";
  if t.deferred_n > 0 then
    invalid_arg "Endpoint.end_hold: previous release not yet submitted";
  t.holding <- false;
  let held = t.held in
  t.held <- t.deferred;
  t.deferred <- held;
  t.deferred_n <- t.held_n;
  t.held_n <- 0

let release_hold t ~after =
  if not t.holding then invalid_arg "Endpoint.release_hold: not holding";
  end_hold t;
  if t.deferred_n > 0 then
    Sim.Engine.schedule (engine t) ~after t.submit_deferred_k

let charge_rx t =
  Memmodel.Cpu.charge_op t.cpu Memmodel.Cpu.Rx Memmodel.Cpu.Rx_packet

(* The UDP endpoint *is* a transport: datagram per message, buffers released
   at NIC completion, no connection state. Built once per endpoint and
   cached so per-send transport dispatch never allocates. *)
let transport t =
  match t.udp_transport with
  | Some tr -> tr
  | None ->
      let tr =
        {
          tr_name = "udp";
          tr_ep = t;
          tr_headroom = Packet.header_len;
          tr_max_msg_len = Packet.max_payload;
          tr_connect = (fun ~peer -> ignore peer);
          tr_send_inline =
            (fun ~dst ~segments -> send_inline_header t ~dst ~segments);
          tr_send_extra =
            (fun ~dst ~segments -> send_extra_header t ~dst ~segments);
          tr_send_inline_zc =
            (fun ~dst ~head ~zc ~zc_n -> send_inline_zc t ~dst ~head ~zc ~zc_n);
          tr_send_extra_zc =
            (fun ~dst ~head ~zc ~zc_n -> send_extra_zc t ~dst ~head ~zc ~zc_n);
          tr_send_string = (fun ~dst s -> send_string t ~dst s);
          tr_set_rx = (fun f -> set_rx t f);
        }
      in
      t.udp_transport <- Some tr;
      tr

let rx_packets t = Nic.Device.rxq_packets t.rxq

let rx_dropped t = Nic.Device.rxq_dropped t.rxq

let rx_bytes t = Nic.Device.rxq_bytes t.rxq

(* Deliveries the application still pins (held buffers or [Wire.Rc_view]s):
   RX ring slots that cannot serve new frames until released. *)
let rx_outstanding t = Nic.Device.rx_outstanding t.rxq

let tx_packets t = Nic.Device.tx_packets t.nic

let tx_bytes t = Nic.Device.tx_bytes t.nic

let doorbells t = Nic.Device.doorbells t.nic

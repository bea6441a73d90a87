exception Too_many_segments of { requested : int; limit : int }

exception Ring_full

type completion_fault = now:int -> [ `Lose | `Delay of int ] option

(* Reusable transmit descriptor: a preallocated gather array refilled in
   place per send and recycled through the device's free stack once its
   completion delivers. The steady-state post path builds no per-send
   lists — segment refs land in [d_segs], RefSan hold tokens in the
   parallel [d_holds], and [d_release] (one long-lived closure, typically
   the endpoint's decr_ref) runs per segment at completion.

   The descriptor also carries its own event continuations, built once
   with it, so posting schedules no fresh closure: [d_egress] puts the
   gathered frame [d_wire] on the wire; [d_egress_cqe] does that and then
   delivers the CQE; [d_late] runs a completion a fault delayed. A batch's
   coalesced CQE rides on its last descriptor, whose [d_batch] holds the
   first [d_batch_n] members ([d_batch_n = 0] for a descriptor posted
   alone). *)
type txd = {
  mutable d_segs : Mem.Pinned.Buf.t array; (* first [d_n] slots live *)
  mutable d_n : int;
  mutable d_holds : int option array; (* RefSan holds, parallel to d_segs *)
  mutable d_release : Mem.Pinned.Buf.t -> unit;
  mutable d_done : unit -> unit;
  mutable d_wire : wire;
  mutable d_batch : txd array;
  mutable d_batch_n : int;
  d_egress : unit -> unit;
  d_egress_cqe : unit -> unit;
  d_late : unit -> unit;
}

(* Egress frame: the device's payload snapshot, pooled and recycled. The
   gather copy lands in [w_buf] (capacity rounded up so steady-state sends
   reuse one buffer instead of carving a fresh multi-KB block out of the
   major heap per packet — the allocation alone costs more than the copy).
   Ownership transfers to the [on_wire] consumer, who must call
   {!wire_release} exactly once per reference when the frame is finished
   (and {!wire_retain} before duplicating delivery). Consumers may read
   [w_buf.[0 .. w_len)] but never mutate or stash it past release.

   [w_hop] is the frame's arrival continuation, built with the frame: it
   runs [w_arrive w], the receiver the carrier set when it scheduled the
   frame's arrival. *)
and wire = {
  mutable w_buf : Bytes.t;
  mutable w_len : int;
  mutable w_refs : int;
  w_dev : t;
  mutable w_arrive : wire -> unit;
  w_hop : unit -> unit;
}

(* Receive queue: one per attached endpoint (a shared device carries one
   rxq per core, like a real multi-queue NIC under RSS). The ring is backed
   by a pinned pool — posting a receive buffer IS allocating from the pool,
   and the slot returns to the ring only when the delivered buffer's
   refcount reaches zero. Outstanding [Wire.Rc_view]s hold references, so
   [rx_outstanding] (live pool buffers) is exactly the number of deliveries
   the application still pins. *)
and rxq = {
  q_dev : t;
  q_pool : Mem.Pinned.Pool.t;
  q_cpu : Memmodel.Cpu.t;
  mutable q_packets : int;
  mutable q_bytes : int;
  mutable q_dropped : int;
}

and t = {
  engine : Sim.Engine.t;
  model : Model.t;
  mutable rxqs : rxq list; (* newest first; aggregate stats sum these *)
  mutable on_wire : wire -> unit;
  (* Recycled egress frames: a stack, first [wire_pooled] slots live. *)
  mutable wire_free : wire array;
  mutable wire_pooled : int;
  idle_wire : wire; (* empty frame held by descriptors between posts *)
  mutable busy_until : int; (* when the DMA/wire pipeline frees up *)
  mutable in_flight : int;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable doorbells : int;
  (* Descriptor free stack (grows by doubling, like the ring a driver
     preallocates): completed descriptors return here for reuse. *)
  mutable txd_free : txd array;
  mutable txd_top : int;
  (* Fault injection: a lost CQE leaves its descriptors' ring slots
     occupied and their segment references (and RefSan holds) pinned until
     [reap_lost] recovers them — exactly the hazard the paper's refcount
     discussion worries about. *)
  mutable completion_fault : completion_fault option;
  mutable lost : txd list;
  mutable lost_completions : int;
  mutable delayed_completions : int;
  mutable reaped_completions : int;
}

let noop () = ()

let noop_release (_ : Mem.Pinned.Buf.t) = ()

let no_arrival (_ : wire) = ()

(* Ceiling on recycled frames: enough for every packet that can be in
   flight across fabric delays in practice, while bounding retained bytes
   if a consumer holds frames unusually long. *)
let wire_pool_cap = 64

let wire_bytes w = w.w_buf

let wire_len w = w.w_len

let wire_retain w = w.w_refs <- w.w_refs + 1

let wire_release w =
  w.w_refs <- w.w_refs - 1;
  if w.w_refs = 0 then begin
    let t = w.w_dev in
    if t.wire_pooled < wire_pool_cap then begin
      if Array.length t.wire_free = 0 then
        t.wire_free <- Array.make wire_pool_cap w;
      t.wire_free.(t.wire_pooled) <- w;
      t.wire_pooled <- t.wire_pooled + 1
    end
  end

let new_wire t ~buf ~len =
  let rec w =
    {
      w_buf = buf;
      w_len = len;
      w_refs = 1;
      w_dev = t;
      w_arrive = no_arrival;
      w_hop = (fun () -> w.w_arrive w);
    }
  in
  w

(* Schedule [f w] [after] ns from now through the frame's own arrival
   continuation. Every pending arrival of one frame runs the same [f]. *)
let wire_arrive_after w ~after f =
  w.w_arrive <- f;
  Sim.Engine.schedule w.w_dev.engine ~after w.w_hop
[@@alloc_free]

let wire_capacity_for len =
  let c = ref 256 in
  while !c < len do c := !c * 2 done;
  !c

(* Take the most recently recycled frame that fits [len]: in the steady
   state packets are near-constant size, so the top of the stack fits and
   the acquire is allocation-free. *)
let wire_acquire t len =
  let i = ref (t.wire_pooled - 1) in
  while !i >= 0 && Bytes.length t.wire_free.(!i).w_buf < len do
    decr i
  done;
  if !i < 0 then new_wire t ~buf:(Bytes.create (wire_capacity_for len)) ~len
  else begin
    let w = t.wire_free.(!i) in
    t.wire_pooled <- t.wire_pooled - 1;
    t.wire_free.(!i) <- t.wire_free.(t.wire_pooled);
    w.w_len <- len;
    w.w_refs <- 1;
    w
  end

let create engine ~model =
  let rec t =
    {
      engine;
      model;
      rxqs = [];
      on_wire = wire_release;
      wire_free = [||];
      wire_pooled = 0;
      idle_wire;
      busy_until = 0;
      in_flight = 0;
      tx_packets = 0;
      tx_bytes = 0;
      doorbells = 0;
      txd_free = [||];
      txd_top = 0;
      completion_fault = None;
      lost = [];
      lost_completions = 0;
      delayed_completions = 0;
      reaped_completions = 0;
    }
  and idle_wire =
    {
      w_buf = Bytes.empty;
      w_len = 0;
      w_refs = 0;
      w_dev = t;
      w_arrive = no_arrival;
      w_hop = (fun () -> idle_wire.w_arrive idle_wire);
    }
  in
  t

let model t = t.model

let set_on_wire t f = t.on_wire <- f

let set_completion_fault t f = t.completion_fault <- f

(* --- Receive ring ------------------------------------------------------ *)

let attach_rx ~cpu t pool =
  let q =
    {
      q_dev = t;
      q_pool = pool;
      q_cpu = cpu;
      q_packets = 0;
      q_bytes = 0;
      q_dropped = 0;
    }
  in
  t.rxqs <- q :: t.rxqs;
  q

(* DMA one arriving frame's payload into a posted receive buffer. Real
   bytes move but no CPU cycles are charged: the NIC does the write, the
   host only sees the DDIO-installed lines. [deliver ~src buf] receives the
   buffer with the delivery reference (refcount 1) — whoever consumes the
   delivery releases it, and the ring slot recycles at refcount zero. An
   RX ring overrun (the ring has no free buffer posted: every slot is
   pinned by an outstanding delivery or view) drops the frame instead,
   exactly as a real NIC drops when the host can't keep up. *)
let rx_deliver q bytes ~off ~len ~src ~deliver =
  let cpu = Memmodel.Cpu.none in
  match Mem.Pinned.Buf.alloc ~cpu ~site:"Nic.rx_dma" q.q_pool ~len with
  | buf ->
      Mem.Pinned.Buf.fill_subbytes ~cpu ~site:"Nic.rx_dma" buf bytes
        ~src_off:off ~len;
      (* DDIO: the DMA write leaves the frame in the LLC. *)
      Memmodel.Cpu.install_dma q.q_cpu ~addr:(Mem.Pinned.Buf.addr buf) ~len;
      q.q_packets <- q.q_packets + 1;
      q.q_bytes <- q.q_bytes + len;
      deliver ~src buf
  | exception Mem.Pinned.Out_of_memory _ -> q.q_dropped <- q.q_dropped + 1

let rxq_packets q = q.q_packets

let rxq_bytes q = q.q_bytes

let rxq_dropped q = q.q_dropped

(* Deliveries (and views over them) the application still pins: ring slots
   that cannot serve new frames until their refcount hits zero. *)
let rx_outstanding q = Mem.Pinned.Pool.live q.q_pool

let rx_packets t = List.fold_left (fun n q -> n + q.q_packets) 0 t.rxqs

let rx_bytes t = List.fold_left (fun n q -> n + q.q_bytes) 0 t.rxqs

let rx_dropped t = List.fold_left (fun n q -> n + q.q_dropped) 0 t.rxqs

(* --- Reusable descriptors --------------------------------------------- *)

let txd_recycle t txd =
  let cap = Array.length t.txd_free in
  if t.txd_top >= cap then begin
    let arr = Array.make (max 8 (2 * cap)) txd in
    Array.blit t.txd_free 0 arr 0 t.txd_top;
    t.txd_free <- arr
  end;
  t.txd_free.(t.txd_top) <- txd;
  t.txd_top <- t.txd_top + 1

(* Buf.t has no dummy value, so the gather array is seeded with the pushed
   element; stale entries beyond [d_n] are never read. *)
let txd_push txd buf =
  let cap = Array.length txd.d_segs in
  if txd.d_n >= cap then begin
    let arr = Array.make (max 8 (2 * cap)) buf in
    Array.blit txd.d_segs 0 arr 0 txd.d_n;
    txd.d_segs <- arr;
    let holds = Array.make (Array.length arr) None in
    Array.blit txd.d_holds 0 holds 0 txd.d_n;
    txd.d_holds <- holds
  end;
  txd.d_segs.(txd.d_n) <- buf;
  txd.d_n <- txd.d_n + 1

let txd_set_release txd f = txd.d_release <- f

let txd_set_done txd f = txd.d_done <- f

let txd_len txd = txd.d_n

let txd_payload_bytes txd =
  let total = ref 0 in
  for i = 0 to txd.d_n - 1 do
    total := !total + Mem.Pinned.Buf.len txd.d_segs.(i)
  done;
  !total

let gather t txd ~len =
  let w = wire_acquire t len in
  let off = ref 0 in
  for i = 0 to txd.d_n - 1 do
    let buf = txd.d_segs.(i) in
    Mem.Pinned.Buf.blit_to buf ~dst:w.w_buf ~dst_off:!off;
    off := !off + Mem.Pinned.Buf.len buf
  done;
  w

(* Deliver one descriptor's completion: free the ring slot, release the
   write-protect holds, release the stack's segment references, run the
   callback, and return the descriptor to the free stack. *)
let finish_txd t txd =
  t.in_flight <- t.in_flight - 1;
  for i = 0 to txd.d_n - 1 do
    (match txd.d_holds.(i) with
    | None -> ()
    | some ->
        Mem.Pinned.Buf.release_hold some;
        txd.d_holds.(i) <- None);
    txd.d_release txd.d_segs.(i)
  done;
  let cb = txd.d_done in
  txd.d_n <- 0;
  txd.d_release <- noop_release;
  txd.d_done <- noop;
  txd_recycle t txd;
  cb ()

(* Finish every member of the batch whose CQE [owner] carries, in post
   order. The owner is the last member, so it is recycled (and may be
   reused by a callback) only after its membership has been read. *)
let finish_batch t owner =
  for i = 0 to owner.d_batch_n - 1 do
    finish_txd t owner.d_batch.(i)
  done

(* A completion a fault delayed: the descriptor's own, or its batch's. *)
let finish_late t txd =
  if txd.d_batch_n = 0 then finish_txd t txd else finish_batch t txd

(* Decide the fate of a CQE that is due now. [`Lose] stashes the
   completions on the lost list (ring slots stay occupied); [`Delay d]
   re-schedules delivery [d] ns later. One decision covers a coalesced
   batch CQE. *)
let cqe_fate t =
  match t.completion_fault with
  | None -> None
  | Some f -> f ~now:(Sim.Engine.now t.engine)

let deliver_cqe t txd =
  let n = max 1 txd.d_batch_n in
  match cqe_fate t with
  | Some `Lose ->
      t.lost_completions <- t.lost_completions + n;
      if txd.d_batch_n = 0 then t.lost <- txd :: t.lost
      else
        for i = 0 to n - 1 do
          t.lost <- txd.d_batch.(i) :: t.lost
        done
  | Some (`Delay extra) ->
      t.delayed_completions <- t.delayed_completions + n;
      Sim.Engine.schedule t.engine ~after:extra txd.d_late
  | None -> finish_late t txd

let reap_lost t =
  let lost = t.lost in
  t.lost <- [];
  let n = List.length lost in
  t.reaped_completions <- t.reaped_completions + n;
  List.iter (finish_txd t) lost;
  n

let lost_completions t = t.lost_completions

let delayed_completions t = t.delayed_completions

let reaped_completions t = t.reaped_completions

(* The packet's last bit leaves the NIC. Egress happens regardless of the
   CQE's fate: losing a completion does not claw the packet back off the
   wire. *)
let egress t txd =
  let w = txd.d_wire in
  txd.d_wire <- t.idle_wire;
  t.tx_packets <- t.tx_packets + 1;
  t.tx_bytes <- t.tx_bytes + w.w_len;
  t.on_wire w

let new_txd t =
  let rec d =
    {
      d_segs = [||];
      d_n = 0;
      d_holds = [||];
      d_release = noop_release;
      d_done = noop;
      d_wire = t.idle_wire;
      d_batch = [||];
      d_batch_n = 0;
      d_egress = (fun () -> egress t d);
      d_egress_cqe =
        (fun () ->
          egress t d;
          deliver_cqe t d);
      d_late = (fun () -> finish_late t d);
    }
  in
  d

let txd_acquire t =
  if t.txd_top > 0 then begin
    t.txd_top <- t.txd_top - 1;
    t.txd_free.(t.txd_top)
  end
  else new_txd t

(* --- Posting ----------------------------------------------------------- *)

let take_holds txd ~site =
  if Sanitizer.Refsan.is_enabled () then
    for i = 0 to txd.d_n - 1 do
      txd.d_holds.(i) <- Mem.Pinned.Buf.hold ~site txd.d_segs.(i)
    done

(* Occupy the DMA/wire pipeline for one descriptor and gather its frame;
   returns the time its last bit leaves. PCIe descriptor + gather fetches
   overlap wire serialization, so the pipeline occupancy per packet is
   whichever is longer. [~first] pays the per-descriptor fetch. Bytes are
   snapshotted at post time: the zero-copy contract says the app must not
   mutate in place during sends, and refcounts keep buffers alive, so
   gathering now is equivalent to gathering at DMA time. RefSan holds
   write-protect each segment until the completion fires, turning any
   in-place mutation of posted bytes into a write-after-post diagnostic. *)
let occupy t txd ~first ~site =
  let nsge = txd.d_n in
  t.in_flight <- t.in_flight + 1;
  let start = max (Sim.Engine.now t.engine) t.busy_until in
  let payload_bytes = txd_payload_bytes txd in
  let dma_ns =
    (if first then t.model.Model.pcie_per_descriptor_ns else 0.0)
    +. (float_of_int nsge *. t.model.Model.pcie_per_sge_ns)
  in
  let wire_ns = Model.wire_time_ns t.model ~bytes:payload_bytes in
  let finish = start + int_of_float (ceil (Float.max dma_ns wire_ns)) in
  t.busy_until <- finish;
  take_holds txd ~site;
  txd.d_wire <- gather t txd ~len:payload_bytes;
  finish

let check_sge t txd ~what =
  let nsge = txd.d_n in
  if nsge = 0 then invalid_arg what;
  if nsge > t.model.Model.max_sge then
    raise (Too_many_segments { requested = nsge; limit = t.model.Model.max_sge })

let post_txd t txd =
  check_sge t txd ~what:"Device.post_txd: empty gather list";
  if t.in_flight >= t.model.Model.tx_ring_entries then raise Ring_full;
  t.doorbells <- t.doorbells + 1;
  txd.d_batch_n <- 0;
  let finish = occupy t txd ~first:true ~site:"Nic.post" in
  Sim.Engine.schedule_at t.engine ~time:finish txd.d_egress_cqe
[@@alloc_free]

(* Batched post: one doorbell covers every descriptor. The first descriptor
   pays the full per-descriptor PCIe fetch; the rest ride the same burst and
   pay only their per-SGE fetches. Packets still leave the wire one by one
   (each gets its own egress event at its own finish time, so fabric arrival
   times match back-to-back unbatched posts), but completion delivery is
   coalesced into a single CQE at the last packet's finish — which is when
   every segment reference is released. Finish times never decrease along
   the batch, so the last packet's egress and the batch CQE share one event
   on the last descriptor, which takes a copy of the membership. [txds] may
   be a caller-owned scratch array (only the first [n] slots are read), so
   the caller can refill it immediately. *)
let post_txd_batch t txds ~n =
  if n = 0 then invalid_arg "Device.post_txd_batch: empty batch";
  if t.in_flight + n > t.model.Model.tx_ring_entries then raise Ring_full;
  t.doorbells <- t.doorbells + 1;
  for i = 0 to n - 1 do
    let txd = txds.(i) in
    check_sge t txd ~what:"Device.post_txd_batch: empty gather list";
    let finish = occupy t txd ~first:(i = 0) ~site:"Nic.post_batch" in
    if i < n - 1 then Sim.Engine.schedule_at t.engine ~time:finish txd.d_egress
    else begin
      if Array.length txd.d_batch < n then txd.d_batch <- Array.make n txd;
      Array.blit txds 0 txd.d_batch 0 n;
      txd.d_batch_n <- n;
      Sim.Engine.schedule_at t.engine ~time:finish txd.d_egress_cqe
    end
  done

let in_flight t = t.in_flight

let tx_packets t = t.tx_packets

let tx_bytes t = t.tx_bytes

let doorbells t = t.doorbells

(* Refcounted slice into an RX buffer: the receive-side dual of the TX
   [Payload.Zero_copy] reference. A view is a narrowed [Mem.Pinned.Buf]
   handle that owns exactly one reference on the underlying receive buffer,
   so the buffer's slot cannot recycle back into the RX pool while any view
   over it is outstanding — recycle happens at refcount 0, in
   [Pinned.Buf.decr_ref], same as every other pinned buffer.

   Every acquire/release is RefSan-ledgered under its [?site] label, which
   is what makes a leaked view (a handler that parks a slice and forgets it)
   show up at quiesce with the allocation site attached.

   Ownership contract (DESIGN.md §15):
   - within a delivery callback, borrow with [Wire.Reader.payload_view]
     (no reference traffic) — the endpoint's delivery reference keeps the
     buffer live until the handler returns;
   - to retain bytes *past* the callback (parked reassembly slots,
     out-of-order replication ops), take an [Rc_view] and [release] it when
     done — or hand it to the TX path with [to_payload], which transfers
     the reference to the send machinery. *)

type t = Mem.Pinned.Buf.t

let of_buf ~cpu ?(site = "Rc_view.of_buf") buf ~off ~len =
  let v = Mem.Pinned.Buf.sub ~site buf ~off ~len in
  Mem.Pinned.Buf.incr_ref ~cpu ~site v;
  v

(* Adopt an already-counted handle (e.g. a whole RX buffer whose delivery
   reference the caller is transferring into the view). *)
let of_owned buf = buf

let retain ~cpu ?(site = "Rc_view.retain") t =
  Mem.Pinned.Buf.incr_ref ~cpu ~site t

let release ~cpu ?(site = "Rc_view.release") t =
  Mem.Pinned.Buf.decr_ref ~cpu ~site t

let len t = Mem.Pinned.Buf.len t

let is_live t = Mem.Pinned.Buf.is_live t

let view t = Mem.Pinned.Buf.view t

(* Hand the slice to the send path as a gather entry. The view's reference
   transfers with it: the stack releases it at NIC completion / cumulative
   ACK, so the caller must NOT also [release]. *)
let to_payload t = Payload.Zero_copy t

(* The underlying narrowed handle, for APIs that speak [Pinned.Buf]
   (store installation, [blit_from] sources). Does not transfer the
   reference. *)
let buf t = t

(* StatCheck fixture: mutating a buffer the NIC may already be reading.
   NOT part of the build — parsed by the analyzer only.

   The buffer is pushed onto a transmit descriptor, posted, and then
   refilled in place — the DMA engine can observe the torn write.
   Expected: SC-LC-WAP. *)

let send_and_patch dev pool ~len payload patch =
  let buf = Mem.Pinned.Buf.alloc ~site:"Fixture.send_and_patch" pool ~len in
  Mem.Pinned.Buf.fill ~site:"Fixture.send_and_patch" buf payload;
  let txd = Nic.Device.txd_acquire dev in
  Nic.Device.txd_push txd buf;
  Nic.Device.post_txd dev txd;
  (* too late: the NIC owns these bytes until completion *)
  Mem.Pinned.Buf.fill ~site:"Fixture.send_and_patch" buf patch

(* Release-before-ACK: dropping the post-transferred reference outside an
   ACK/completion context. Expected: SC-LC-RBA. *)
let post_then_drop dev pool ~len =
  let buf = Mem.Pinned.Buf.alloc ~site:"Fixture.post_then_drop" pool ~len in
  let txd = Nic.Device.txd_acquire dev in
  Nic.Device.txd_push txd buf;
  Nic.Device.post_txd dev txd;
  Mem.Pinned.Buf.decr_ref ~site:"Fixture.post_then_drop" buf

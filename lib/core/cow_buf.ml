type t = {
  pool : Mem.Pinned.Pool.t;
  mutable buf : Mem.Pinned.Buf.t;
  mutable cow_count : int;
}

let create ~cpu pool ~len =
  { pool; buf = Mem.Pinned.Buf.alloc ~cpu pool ~len; cow_count = 0 }

let of_buf pool buf = { pool; buf; cow_count = 0 }

let buf t = t.buf

let len t = Mem.Pinned.Buf.len t.buf

let shared t = Mem.Pinned.Buf.refcount t.buf > 1

let cow_count t = t.cow_count

let write ~cpu t ~off s =
  if off < 0 || off + String.length s > Mem.Pinned.Buf.len t.buf then
    invalid_arg "Cow_buf.write: out of bounds";
  if shared t then begin
    (* Someone (typically a pending DMA) still reads the old bytes: clone,
       swap the pointer, and release our reference on the original. *)
    let fresh =
      Mem.Pinned.Buf.alloc ~cpu ~site:"Cow_buf.clone" t.pool
        ~len:(Mem.Pinned.Buf.len t.buf)
    in
    Mem.Pinned.Buf.blit_from ~cpu ~site:"Cow_buf.clone" fresh
      ~src:(Mem.Pinned.Buf.view t.buf) ~dst_off:0;
    Mem.Pinned.Buf.note_cow_clone t.buf;
    Mem.Pinned.Buf.decr_ref ~cpu ~site:"Cow_buf.clone" t.buf;
    t.buf <- fresh;
    t.cow_count <- t.cow_count + 1
  end;
  let v = Mem.Pinned.Buf.view t.buf in
  Bytes.blit_string s 0 v.Mem.View.data (v.Mem.View.off + off) (String.length s);
  (* CoW-mediated writes are race-free by construction: either the buffer was
     private, or we just cloned it. Mark them so RefSan's write-after-post
     detector does not flag the (legitimate) mutation. *)
  Mem.Pinned.Buf.note_write ~site:"Cow_buf.write" ~via_cow:true t.buf ~off
    ~len:(String.length s);
  Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:(v.Mem.View.addr + off)
    ~len:(String.length s)

let release ~cpu t = Mem.Pinned.Buf.decr_ref ~cpu ~site:"Cow_buf.release" t.buf

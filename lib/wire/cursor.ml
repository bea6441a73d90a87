exception Overflow = Invalid_argument

let varint_len v =
  let rec go v n =
    let v = Int64.shift_right_logical v 7 in
    if Int64.equal v 0L then n else go v (n + 1)
  in
  go v 1

module Writer = struct
  (* The window is held inline (backing bytes, start offset, length,
     simulated address) rather than as a [Mem.View.t], so a writer can be
     retargeted at a pinned buffer's window without building a view of it.
     Every store charges [Tx]. *)
  type t = {
    mutable data : Bytes.t;
    mutable base : int; (* window start within [data] *)
    mutable limit : int; (* window length *)
    mutable addr : int; (* simulated address of the window *)
    mutable cpu : Memmodel.Cpu.t;
    mutable pos : int;
  }

  let create ~cpu (view : Mem.View.t) =
    {
      data = view.Mem.View.data;
      base = view.Mem.View.off;
      limit = view.Mem.View.len;
      addr = view.Mem.View.addr;
      cpu;
      pos = 0;
    }

  (* Retarget a long-lived writer at a fresh window, so per-send paths
     reuse one writer instead of allocating one per message. The charging
     cpu is rebound too: the scratch writer serves whichever endpoint is
     currently sending. *)
  let reset ~cpu t (view : Mem.View.t) =
    t.data <- view.Mem.View.data;
    t.base <- view.Mem.View.off;
    t.limit <- view.Mem.View.len;
    t.addr <- view.Mem.View.addr;
    t.cpu <- cpu;
    t.pos <- 0

  (* [reset] at [buf]'s window [off, off + len), with
     [Pinned.Buf.sub_view]'s liveness and bounds checks but no view. *)
  let retarget ~cpu ?site t buf ~off ~len =
    t.data <- Mem.Pinned.Buf.sub_backing ?site buf ~off ~len;
    t.base <- Mem.Pinned.Buf.backing_off buf + off;
    t.limit <- len;
    t.addr <- Mem.Pinned.Buf.addr buf + off;
    t.cpu <- cpu;
    t.pos <- 0
  [@@alloc_free]

  let of_buf ~cpu ?site buf ~off ~len =
    let t =
      { data = Bytes.empty; base = 0; limit = 0; addr = 0; cpu; pos = 0 }
    in
    retarget ~cpu ?site t buf ~off ~len;
    t

  let pos t = t.pos

  let remaining t = t.limit - t.pos

  let seek t pos =
    if pos < 0 || pos > t.limit then raise (Overflow "Cursor.Writer.seek");
    t.pos <- pos

  let charge t ~len =
    Memmodel.Cpu.stream t.cpu Memmodel.Cpu.Tx ~addr:(t.addr + t.pos) ~len

  let need t n =
    if t.pos + n > t.limit then
      raise (Overflow "Cursor.Writer: window overflow")

  (* [byte] is only reached behind a [need] (or [span]) bounds check, so
     the store itself is unchecked — the check is hoisted, not skipped. *)
  let byte t v =
    Bytes.unsafe_set t.data (t.base + t.pos) (Char.unsafe_chr (v land 0xff));
    t.pos <- t.pos + 1

  (* --- constant-offset fast stores (specialized serializers) ----------
     [span] hoists one bounds check over a whole region; the [_at] stores
     inside it are straight-line unchecked writes at absolute offsets that
     leave the cursor untouched. Charges are per store, exactly like the
     cursor-advancing calls, so the cache-model accounting (and therefore
     every simulated figure) is unchanged — only the per-byte bounds
     checks and seek ping-pong disappear. *)

  let span t ~pos ~len =
    if pos < 0 || len < 0 || pos + len > t.limit then
      raise (Overflow "Cursor.Writer: span overflow")

  let charge_at t ~pos ~len =
    Memmodel.Cpu.stream t.cpu Memmodel.Cpu.Tx ~addr:(t.addr + pos) ~len

  (* Store a byte at an absolute offset; caller has [span]-checked. *)
  let byte_at t ~pos v =
    Bytes.unsafe_set t.data (t.base + pos) (Char.unsafe_chr (v land 0xff))

  let u32_at t ~pos v =
    charge_at t ~pos ~len:4;
    byte_at t ~pos (v land 0xff);
    byte_at t ~pos:(pos + 1) ((v lsr 8) land 0xff);
    byte_at t ~pos:(pos + 2) ((v lsr 16) land 0xff);
    byte_at t ~pos:(pos + 3) ((v lsr 24) land 0xff)

  let u64_at t ~pos v =
    charge_at t ~pos ~len:8;
    (* Same native-int extraction as [u64]: identical wire bytes. *)
    let lo = Int64.to_int v in
    byte_at t ~pos lo;
    byte_at t ~pos:(pos + 1) (lo lsr 8);
    byte_at t ~pos:(pos + 2) (lo lsr 16);
    byte_at t ~pos:(pos + 3) (lo lsr 24);
    byte_at t ~pos:(pos + 4) (lo lsr 32);
    byte_at t ~pos:(pos + 5) (lo lsr 40);
    byte_at t ~pos:(pos + 6) (lo lsr 48);
    byte_at t ~pos:(pos + 7)
      (((lo lsr 56) land 0x7f) lor (if Int64.compare v 0L < 0 then 0x80 else 0))

  let u8 t v =
    need t 1;
    charge t ~len:1;
    byte t v

  let u16 t v =
    need t 2;
    charge t ~len:2;
    byte t (v land 0xff);
    byte t ((v lsr 8) land 0xff)

  let u32 t v =
    need t 4;
    charge t ~len:4;
    byte t (v land 0xff);
    byte t ((v lsr 8) land 0xff);
    byte t ((v lsr 16) land 0xff);
    byte t ((v lsr 24) land 0xff)

  let u64 t v =
    need t 8;
    charge t ~len:8;
    (* Native-int byte extraction: [Int64.to_int] keeps the low 63 bits, so
       only bit 63 needs the sign test — no boxed Int64 intermediates on
       this per-field hot path. *)
    let lo = Int64.to_int v in
    for i = 0 to 6 do
      byte t ((lo lsr (8 * i)) land 0xff)
    done;
    byte t (((lo lsr 56) land 0x7f) lor (if Int64.compare v 0L < 0 then 0x80 else 0))

  let varint t v =
    let n = varint_len v in
    need t n;
    charge t ~len:n;
    let v = ref v in
    let continue = ref true in
    while !continue do
      let low = Int64.to_int (Int64.logand !v 0x7fL) in
      v := Int64.shift_right_logical !v 7;
      if Int64.equal !v 0L then begin
        byte t low;
        continue := false
      end
      else byte t (low lor 0x80)
    done

  (* Copy 8 raw bytes from [src] at an absolute offset: a scalar that is
     already stored little-endian goes to the wire without passing through
     an int64. Charged like [u64_at]. *)
  let word_at t ~pos src ~src_off =
    charge_at t ~pos ~len:8;
    Bytes.set_int64_le t.data (t.base + pos) (Bytes.get_int64_le src src_off)

  let string t s =
    let n = String.length s in
    need t n;
    charge t ~len:n;
    Bytes.blit_string s 0 t.data (t.base + t.pos) n;
    t.pos <- t.pos + n

  let view_bytes t src =
    let n = src.Mem.View.len in
    need t n;
    Memmodel.Cpu.stream t.cpu Memmodel.Cpu.Tx ~addr:src.Mem.View.addr ~len:n;
    charge t ~len:n;
    Mem.View.blit src ~dst:t.data ~dst_off:(t.base + t.pos);
    t.pos <- t.pos + n
end

module Reader = struct
  type t = {
    view : Mem.View.t;
    cpu : Memmodel.Cpu.t;
    mutable pos : int;
  }

  (* Every read charges [Deser]. *)
  let create ~cpu view = { view; cpu; pos = 0 }

  let pos t = t.pos

  let remaining t = t.view.Mem.View.len - t.pos

  let seek t pos =
    if pos < 0 || pos > t.view.Mem.View.len then
      raise (Overflow "Cursor.Reader.seek");
    t.pos <- pos

  let charge t ~len =
    Memmodel.Cpu.stream t.cpu Memmodel.Cpu.Deser
      ~addr:(t.view.Mem.View.addr + t.pos) ~len

  let need t n =
    if t.pos + n > t.view.Mem.View.len then
      raise (Overflow "Cursor.Reader: window underflow")

  let byte t =
    let c =
      Char.code (Bytes.get t.view.Mem.View.data (t.view.Mem.View.off + t.pos))
    in
    t.pos <- t.pos + 1;
    c

  let u8 t =
    need t 1;
    charge t ~len:1;
    byte t

  let u16 t =
    need t 2;
    charge t ~len:2;
    let a = byte t in
    let b = byte t in
    a lor (b lsl 8)

  let u32 t =
    need t 4;
    charge t ~len:4;
    let a = byte t in
    let b = byte t in
    let c = byte t in
    let d = byte t in
    a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)

  let u64 t =
    need t 8;
    charge t ~len:8;
    (* Accumulate bits 0..62 in a native int; only bit 63 needs Int64
       arithmetic, and only when actually set. *)
    let lo = ref 0 in
    for i = 0 to 6 do
      lo := !lo lor (byte t lsl (8 * i))
    done;
    let b7 = byte t in
    (* Bit 62 of the value sits on the native int's sign bit, so
       [Int64.of_int] sign-extends it into bit 63 — mask bit 63 back to
       what byte 7 actually carried. *)
    let acc = !lo lor ((b7 land 0x7f) lsl 56) in
    if b7 land 0x80 = 0 then Int64.logand (Int64.of_int acc) Int64.max_int
    else Int64.logor (Int64.of_int acc) Int64.min_int

  let varint t =
    let v = ref 0L in
    let shift = ref 0 in
    let continue = ref true in
    while !continue do
      need t 1;
      charge t ~len:1;
      let b = byte t in
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (b land 0x7f)) !shift);
      shift := !shift + 7;
      if b land 0x80 = 0 then continue := false
      else if !shift > 63 then raise (Overflow "Cursor.Reader: varint too long")
    done;
    !v

  let string t ~len =
    need t len;
    charge t ~len;
    let s =
      Bytes.sub_string t.view.Mem.View.data (t.view.Mem.View.off + t.pos) len
    in
    t.pos <- t.pos + len;
    s

  let sub t ~len =
    need t len;
    let v = Mem.View.sub t.view ~off:t.pos ~len in
    t.pos <- t.pos + len;
    v
end

(* Validate-once, access-in-place deserialization: the receive-side dual of
   the folded writers. One validation pass over a received frame checks the
   bitmap against the schema and bounds-checks every present field's info
   slot, payload extent, repeated table (elements included) and nested
   header — after which every getter is straight-line offset arithmetic
   into the original RX buffer: scalar reads are unchecked little-endian
   loads, payload reads hand back windows ([payload_view] to borrow within
   the delivery callback, [payload_rc] to retain past it). No intermediate
   [Dyn] message is materialized and no field is copied.

   This is the LowParse validator-then-accessor split (and Vollmer's typed
   accessors over packed data): the validator is the only code that can
   reject, the accessors are total over validated frames. The bounds checks
   and the rejection vocabulary mirror [Format_.read_msg] exactly, so a
   frame is accepted here iff the [Dyn] parser accepts it.

   A reader is a pooled scratch object (one per message type per endpoint):
   [validate] refills the slot-offset table in place, so steady-state RX
   deserialization allocates nothing beyond the handle cache. *)

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let max_depth = 32

let bitmap_words nfields = (nfields + 31) / 32

type t = {
  desc : Schema.Desc.message;
  (* Field index -> absolute info-slot offset within the object; -1 when
     the field is absent from the validated frame. *)
  slots : int array;
  mutable words : int array; (* bitmap scratch *)
  (* The bound frame's buffer in a one-slot array, empty when unbound:
     binding the next frame overwrites the slot instead of boxing the
     buffer in a fresh option. *)
  mutable frame : Mem.Pinned.Buf.t array;
  mutable data : Bytes.t;
  mutable base : int; (* window start within [data] *)
  mutable addr : int; (* simulated address of the window *)
  mutable total : int; (* object length *)
  mutable depth : int;
  meter : Memmodel.Cpu.t; (* the meter the reader was created with *)
  (* The meter the bound frame charges: [meter] after [validate], the
     parent's after [nested]. *)
  mutable cpu : Memmodel.Cpu.t;
}

let create ?(cpu = Memmodel.Cpu.none) (desc : Schema.Desc.message) =
  let n = Array.length desc.Schema.Desc.fields in
  {
    desc;
    slots = Array.make (max 1 n) (-1);
    words = Array.make (max 1 (bitmap_words n)) 0;
    frame = [||];
    data = Bytes.empty;
    base = 0;
    addr = 0;
    total = 0;
    depth = 0;
    meter = cpu;
    cpu;
  }

let desc t = t.desc

(* --- raw loads (validated offsets only) -------------------------------- *)

let u32_at t off =
  let p = t.base + off in
  Char.code (Bytes.unsafe_get t.data p)
  lor (Char.code (Bytes.unsafe_get t.data (p + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get t.data (p + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get t.data (p + 3)) lsl 24)

(* Same native-int extraction as [Cursor.Reader.u64]: bits 0..62 accumulate
   in a native int, bit 63 comes from byte 7's top bit. *)
let u64_at t off =
  let p = t.base + off in
  let lo = ref 0 in
  for i = 0 to 6 do
    lo := !lo lor (Char.code (Bytes.unsafe_get t.data (p + i)) lsl (8 * i))
  done;
  let b7 = Char.code (Bytes.unsafe_get t.data (p + 7)) in
  let acc = !lo lor ((b7 land 0x7f) lsl 56) in
  if b7 land 0x80 = 0 then Int64.logand (Int64.of_int acc) Int64.max_int
  else Int64.logor (Int64.of_int acc) Int64.min_int

let charge t ~off ~len =
  Memmodel.Cpu.stream t.cpu Memmodel.Cpu.Deser ~addr:(t.addr + off) ~len

(* One call into the validator per frame — versus [Format_]'s per-field
   parse-call charge, which is exactly the dispatch cost validate-once
   amortizes away. *)
let charge_call t =
  Memmodel.Cpu.charge_op t.cpu Memmodel.Cpu.Deser Memmodel.Cpu.Per_call

(* --- validation -------------------------------------------------------- *)

let check_payload t ~slot =
  let off = u32_at t slot in
  let len = u32_at t (slot + 4) in
  if off < 0 || len < 0 || off + len > t.total then
    invalid "payload [%d, %d) out of object of %d bytes" off (off + len)
      t.total

let check_nested t ~slot =
  let off = u32_at t slot in
  let hlen = u32_at t (slot + 4) in
  if off < 0 || hlen < 4 || off + hlen > t.total then
    invalid "nested header out of range"

(* Bounds-check one present field's contents behind its (already checked)
   info slot. Charges the extra table reads a repeated field costs; the
   slot itself was charged with the header block. *)
let check_field t (field : Schema.Desc.field) ~slot =
  match field.Schema.Desc.label with
  | Schema.Desc.Repeated -> (
      let table = u32_at t slot in
      let count = u32_at t (slot + 4) in
      if count < 0 || table < 0 || table + (8 * count) > t.total then
        invalid "repeated field table out of range";
      charge t ~off:table ~len:(8 * count);
      match field.Schema.Desc.ty with
      | Schema.Desc.Scalar _ -> ()
      | Schema.Desc.Str | Schema.Desc.Bytes ->
          for j = 0 to count - 1 do
            check_payload t ~slot:(table + (8 * j))
          done
      | Schema.Desc.Message _ ->
          for j = 0 to count - 1 do
            check_nested t ~slot:(table + (8 * j))
          done)
  | Schema.Desc.Singular -> (
      match field.Schema.Desc.ty with
      | Schema.Desc.Scalar _ -> ()
      | Schema.Desc.Str | Schema.Desc.Bytes -> check_payload t ~slot
      | Schema.Desc.Message _ -> check_nested t ~slot)

let bind ~cpu t buf =
  if Array.length t.frame = 0 then t.frame <- [| buf |]
  else Array.unsafe_set t.frame 0 buf;
  t.data <- Mem.Pinned.Buf.backing buf;
  t.base <- Mem.Pinned.Buf.backing_off buf;
  t.addr <- Mem.Pinned.Buf.addr buf;
  t.total <- Mem.Pinned.Buf.len buf;
  t.cpu <- cpu

let validate_at ~cpu t buf ~hpos ~depth =
  if depth > max_depth then invalid "nesting deeper than %d" max_depth;
  bind ~cpu t buf;
  charge_call t;
  t.depth <- depth;
  let fields = t.desc.Schema.Desc.fields in
  let nfields = Array.length fields in
  if hpos < 0 || hpos + 4 > t.total then invalid "header position out of range";
  let bw = u32_at t hpos in
  if bw <> bitmap_words nfields then
    invalid "bitmap size %d does not match schema for %s" bw
      t.desc.Schema.Desc.msg_name;
  if hpos + 4 + (4 * bw) > t.total then invalid "bitmap out of range";
  for j = 0 to bw - 1 do
    t.words.(j) <- u32_at t (hpos + 4 + (4 * j))
  done;
  let slot_base = hpos + 4 + (4 * bw) in
  let k = ref 0 in
  for i = 0 to nfields - 1 do
    if t.words.(i / 32) land (1 lsl (i mod 32)) <> 0 then begin
      let slot = slot_base + (8 * !k) in
      incr k;
      if slot + 8 > t.total then invalid "info slot out of range";
      t.slots.(i) <- slot;
      check_field t (Array.unsafe_get fields i) ~slot
    end
    else t.slots.(i) <- -1
  done;
  (* Validate-once rule: the header block (count word + bitmap + slots) is
     streamed exactly once; repeated tables were charged as they were
     checked. Field accesses charge only the bytes they actually load. *)
  charge t ~off:hpos ~len:(4 + (4 * bw) + (8 * !k))

let validate t buf = validate_at ~cpu:t.meter t buf ~hpos:0 ~depth:0
[@@alloc_free]

(* Specialized entry for codegen'd [read_folded]: when the frame carries
   the constant-folded all-present layout (bitmap word count 1, the literal
   [bitmap], header block of [header_len] bytes), the presence scan folds
   into one compare and the slot table fills arithmetically. Returns
   [false] — without rejecting — on any other shape, so the caller falls
   back to the generic [validate] (which also produces the precise
   rejection). Extent checks still run per field: only the presence
   decoding is folded, never the bounds. The call is charged only on the
   folded path: on a fallback, [validate] charges it, once. *)
let validate_folded t buf ~bitmap ~header_len =
  bind ~cpu:t.meter t buf;
  t.depth <- 0;
  if t.total < header_len || header_len < 8 then false
  else if u32_at t 0 <> 1 || u32_at t 4 <> bitmap then false
  else begin
    charge_call t;
    let fields = t.desc.Schema.Desc.fields in
    let nfields = Array.length fields in
    for i = 0 to nfields - 1 do
      let slot = 8 + (8 * i) in
      t.slots.(i) <- slot;
      check_field t (Array.unsafe_get fields i) ~slot
    done;
    charge t ~off:0 ~len:header_len;
    true
  end
[@@alloc_free]

(* --- accessors (total over validated frames) --------------------------- *)

let absent t i =
  invalid "field %s of %s absent"
    t.desc.Schema.Desc.fields.(i).Schema.Desc.field_name
    t.desc.Schema.Desc.msg_name

let present t i = Array.unsafe_get t.slots i >= 0

let slot t i =
  let s = Array.unsafe_get t.slots i in
  if s < 0 then absent t i;
  s

let get_u64 t i =
  let s = slot t i in
  charge t ~off:s ~len:8;
  u64_at t s

(* Copy field [i]'s 8 raw bytes into [dst]: the u64 keeps its exact bits
   without an int64 in between. Charged like [get_u64]. *)
let blit_u64 t i dst ~dst_off =
  let s = slot t i in
  charge t ~off:s ~len:8;
  Bytes.blit t.data (t.base + s) dst dst_off 8
[@@alloc_free]

let get_u64_or t i ~default =
  if present t i then get_u64 t i else default

let get_float t i = Int64.float_of_bits (get_u64 t i)

let payload_off_len t i =
  let s = slot t i in
  charge t ~off:s ~len:8;
  (u32_at t s, u32_at t (s + 4))

let payload_len t i =
  let s = slot t i in
  charge t ~off:(s + 4) ~len:4;
  u32_at t (s + 4)

let the_buf t =
  if Array.length t.frame = 0 then invalid "reader has no validated frame"
  else Array.unsafe_get t.frame 0

let payload_view t i =
  let off, len = payload_off_len t i in
  Mem.Pinned.Buf.sub_view (the_buf t) ~off ~len

let payload_rc ?(site = "Reader.payload_rc") t i =
  let off, len = payload_off_len t i in
  Rc_view.of_buf ~cpu:t.cpu ~site (the_buf t) ~off ~len

(* Copy-out, charged as an App-side read over the payload bytes — the
   deliberate small-field exit from the zero-copy discipline (hash keys,
   command names). *)
let payload_string t i =
  let off, len = payload_off_len t i in
  Memmodel.Cpu.stream t.cpu Memmodel.Cpu.App ~addr:(t.addr + off) ~len;
  Bytes.sub_string t.data (t.base + off) len

(* --- repeated fields --------------------------------------------------- *)

let count t i =
  let s = slot t i in
  charge t ~off:(s + 4) ~len:4;
  u32_at t (s + 4)

(* An empty repeated field is not encoded: absent reads as zero elements. *)
let count_or_zero t i = if present t i then count t i else 0

let elem_slot t i ~j =
  let s = slot t i in
  charge t ~off:s ~len:8;
  let table = u32_at t s in
  let count = u32_at t (s + 4) in
  if j < 0 || j >= count then
    invalid "element %d out of %d in field %s" j count
      t.desc.Schema.Desc.fields.(i).Schema.Desc.field_name;
  table + (8 * j)

let elem_u64 t i ~j =
  let s = elem_slot t i ~j in
  charge t ~off:s ~len:8;
  u64_at t s

let elem_off_len t i ~j =
  let s = elem_slot t i ~j in
  charge t ~off:s ~len:8;
  (u32_at t s, u32_at t (s + 4))

let elem_view t i ~j =
  let off, len = elem_off_len t i ~j in
  Mem.Pinned.Buf.sub_view (the_buf t) ~off ~len

let elem_rc ?(site = "Reader.elem_rc") t i ~j =
  let off, len = elem_off_len t i ~j in
  Rc_view.of_buf ~cpu:t.cpu ~site (the_buf t) ~off ~len

let elem_string t i ~j =
  let off, len = elem_off_len t i ~j in
  Memmodel.Cpu.stream t.cpu Memmodel.Cpu.App ~addr:(t.addr + off) ~len;
  Bytes.sub_string t.data (t.base + off) len

(* Keys read in place. [elem_key] and [payload_key] charge exactly what
   [elem_string] and [payload_string] charge (the slot read, then the App
   sweep over the bytes the handler hashes) but copy nothing: they return
   the field's (offset, length) slot, which [key_off] and [key_len] read
   back uncharged as a window on [data]. *)
let charge_key t s =
  charge t ~off:s ~len:8;
  Memmodel.Cpu.stream t.cpu Memmodel.Cpu.App ~addr:(t.addr + u32_at t s)
    ~len:(u32_at t (s + 4));
  s
[@@alloc_free]

let elem_key t i ~j = charge_key t (elem_slot t i ~j) [@@alloc_free]

let payload_key t i = charge_key t (slot t i) [@@alloc_free]

let data t = t.data

let key_off t s = t.base + u32_at t s

let key_len t s = u32_at t (s + 4)

(* --- nested messages --------------------------------------------------- *)

(* Open field [i]'s nested message into [into] (a reader created with the
   nested message's descriptor): validates the nested level once, in place.
   Composition is by-need — a level is validated when opened, with the
   parent's depth carried so recursion is still bounded by [max_depth]. *)
let nested t i ~into =
  let s = slot t i in
  charge t ~off:s ~len:8;
  let off = u32_at t s in
  validate_at ~cpu:t.cpu into (the_buf t) ~hpos:off ~depth:(t.depth + 1)

let nested_elem t i ~j ~into =
  let s = elem_slot t i ~j in
  charge t ~off:s ~len:8;
  let off = u32_at t s in
  validate_at ~cpu:t.cpu into (the_buf t) ~hpos:off ~depth:(t.depth + 1)

(* Drop the cached frame handle (e.g. before quiescing RefSan, so a pooled
   reader does not pin the last delivery's buffer handle in its cache).
   Readers never own a reference; this only clears the convenience cache. *)
let clear t =
  t.frame <- [||];
  t.data <- Bytes.empty;
  t.base <- 0;
  t.addr <- 0;
  t.total <- 0

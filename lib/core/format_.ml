exception Malformed of string

(* A reusable serialization plan: region sizes plus a growable array of
   zero-copy gather entries (first [zc_count] slots live). [measure_into]
   refills an existing plan in place, so the steady-state send path reuses
   one plan (and its array) per endpoint instead of building a fresh list
   per message. The write cursors live in the plan too, for the same
   reason. *)
type plan = {
  mutable header_len : int;
  mutable stream_len : int;
  mutable zc : Mem.Pinned.Buf.t array;
  mutable zc_count : int;
  mutable zc_len : int;
  mutable total_len : int;
  mutable stream_pos : int; (* write cursor: copied region *)
  mutable zc_pos : int; (* write cursor: zero-copy region *)
}

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let bitmap_words nfields = (nfields + 31) / 32

let header_block_len (msg : Wire.Dyn.t) =
  let desc = Wire.Dyn.desc msg in
  4
  + (4 * bitmap_words (Array.length desc.Schema.Desc.fields))
  + (8 * Wire.Dyn.present_count msg)

(* --- Measuring ------------------------------------------------------- *)

let create_plan () =
  {
    header_len = 0;
    stream_len = 0;
    zc = [||];
    zc_count = 0;
    zc_len = 0;
    total_len = 0;
    stream_pos = 0;
    zc_pos = 0;
  }

(* Buf.t has no dummy value, so a growing array is seeded with the pushed
   element; stale entries beyond [zc_count] are never read. *)
let push_zc plan buf =
  let cap = Array.length plan.zc in
  if plan.zc_count >= cap then begin
    let arr = Array.make (max 8 (2 * cap)) buf in
    Array.blit plan.zc 0 arr 0 plan.zc_count;
    plan.zc <- arr
  end;
  plan.zc.(plan.zc_count) <- buf;
  plan.zc_count <- plan.zc_count + 1

let measure_payload plan (p : Wire.Payload.t) =
  match p with
  | Wire.Payload.Zero_copy buf ->
      plan.zc_len <- plan.zc_len + Mem.Pinned.Buf.len buf;
      push_zc plan buf
  | Wire.Payload.Copied v | Wire.Payload.Literal v ->
      plan.stream_len <- plan.stream_len + v.Mem.View.len

(* Column traversal: present fields in schema order, dispatched on the
   field's kind; repeated fields walk their element arrays. No closures,
   no lists. *)
let rec measure_msg plan (msg : Wire.Dyn.t) =
  let fields = (Wire.Dyn.desc msg).Schema.Desc.fields in
  for i = 0 to Array.length fields - 1 do
    if Wire.Dyn.mem msg i then measure_field plan msg i (Array.unsafe_get fields i)
  done

and measure_field plan msg i (f : Schema.Desc.field) =
  match (f.Schema.Desc.label, f.Schema.Desc.ty) with
  | Schema.Desc.Singular, Schema.Desc.Scalar _ -> ()
  | Schema.Desc.Singular, (Schema.Desc.Str | Schema.Desc.Bytes) ->
      measure_payload plan (Wire.Dyn.payload_at msg i)
  | Schema.Desc.Singular, Schema.Desc.Message _ ->
      measure_nested plan (Wire.Dyn.nested_at msg i)
  | Schema.Desc.Repeated, ty -> (
      let n = Wire.Dyn.count msg i in
      plan.stream_len <- plan.stream_len + (8 * n);
      match ty with
      | Schema.Desc.Scalar _ -> ()
      | Schema.Desc.Str | Schema.Desc.Bytes ->
          for j = 0 to n - 1 do
            measure_payload plan (Wire.Dyn.elem_payload msg i j)
          done
      | Schema.Desc.Message _ ->
          for j = 0 to n - 1 do
            measure_nested plan (Wire.Dyn.elem_nested msg i j)
          done)

and measure_nested plan m =
  plan.stream_len <- plan.stream_len + header_block_len m;
  measure_msg plan m

let measure_into plan msg =
  plan.stream_len <- 0;
  plan.zc_count <- 0;
  plan.zc_len <- 0;
  measure_msg plan msg;
  plan.header_len <- header_block_len msg;
  plan.total_len <- plan.header_len + plan.stream_len + plan.zc_len
[@@alloc_free]

let measure msg =
  let plan = create_plan () in
  measure_into plan msg;
  plan

let zc_count plan = plan.zc_count

let iter_zc plan f =
  for i = 0 to plan.zc_count - 1 do
    f plan.zc.(i)
  done

let zc_bufs plan = Array.to_list (Array.sub plan.zc 0 plan.zc_count)

let object_len msg = (measure msg).total_len

let num_entries plan = 1 + plan.zc_count

(* --- Writing ----------------------------------------------------------

   Every header-block and table store goes through the constant-offset
   [Cursor.Writer] fast stores: the enclosing [write_msg] (or a repeated
   field's table) issues one [span] bounds check over the region, after
   which slot writes are straight-line unchecked stores. The bitmap words
   are the message's own presence bytes and scalars are copied from its
   word column. Charge order is byte-for-byte the same as the historical
   cursor-seeking writer, so simulated figures are unchanged. *)

let rec write_msg w cur (msg : Wire.Dyn.t) ~hpos =
  let module W = Wire.Cursor.Writer in
  let fields = (Wire.Dyn.desc msg).Schema.Desc.fields in
  let bw = bitmap_words (Array.length fields) in
  W.span w ~pos:hpos ~len:(4 + (4 * bw) + (8 * Wire.Dyn.present_count msg));
  W.u32_at w ~pos:hpos bw;
  for j = 0 to bw - 1 do
    W.u32_at w ~pos:(hpos + 4 + (4 * j)) (Wire.Dyn.bitmap_word msg j)
  done;
  write_fields w cur msg fields 0 ~slot:(hpos + 4 + (4 * bw))
[@@alloc_free]

(* Present fields from [i] on, their info slots packed from [slot]. *)
and write_fields w cur msg fields i ~slot =
  if i < Array.length fields then
    if Wire.Dyn.mem msg i then begin
      write_field w cur msg i (Array.unsafe_get fields i) ~slot;
      write_fields w cur msg fields (i + 1) ~slot:(slot + 8)
    end
    else write_fields w cur msg fields (i + 1) ~slot
[@@alloc_free]

(* Precondition: [slot, slot+8) lies inside a region already [span]ed by the
   caller (the header block, or a repeated-field table). *)
and write_field w cur msg i (f : Schema.Desc.field) ~slot =
  match (f.Schema.Desc.label, f.Schema.Desc.ty) with
  | Schema.Desc.Singular, Schema.Desc.Scalar _ ->
      Wire.Dyn.write_scalar msg i w ~pos:slot
  | Schema.Desc.Singular, (Schema.Desc.Str | Schema.Desc.Bytes) ->
      write_payload_at w cur (Wire.Dyn.payload_at msg i) ~slot
  | Schema.Desc.Singular, Schema.Desc.Message _ ->
      write_nested_at w cur (Wire.Dyn.nested_at msg i) ~slot
  | Schema.Desc.Repeated, _ -> write_list_at w cur msg i ~slot
[@@alloc_free]

and write_nested_at w cur m ~slot =
  let module W = Wire.Cursor.Writer in
  let nh = header_block_len m in
  let pos = cur.stream_pos in
  cur.stream_pos <- cur.stream_pos + nh;
  W.u32_at w ~pos:slot pos;
  W.u32_at w ~pos:(slot + 4) nh;
  write_msg w cur m ~hpos:pos
[@@alloc_free]

and write_list_at w cur msg i ~slot =
  let module W = Wire.Cursor.Writer in
  let count = Wire.Dyn.count msg i in
  let table = cur.stream_pos in
  cur.stream_pos <- cur.stream_pos + (8 * count);
  W.u32_at w ~pos:slot table;
  W.u32_at w ~pos:(slot + 4) count;
  W.span w ~pos:table ~len:(8 * count);
  let f = Array.unsafe_get (Wire.Dyn.desc msg).Schema.Desc.fields i in
  match f.Schema.Desc.ty with
  | Schema.Desc.Scalar _ ->
      for j = 0 to count - 1 do
        Wire.Dyn.write_elem_scalar msg i j w ~pos:(table + (8 * j))
      done
  | Schema.Desc.Str | Schema.Desc.Bytes ->
      for j = 0 to count - 1 do
        write_payload_at w cur (Wire.Dyn.elem_payload msg i j)
          ~slot:(table + (8 * j))
      done
  | Schema.Desc.Message _ ->
      for j = 0 to count - 1 do
        write_nested_at w cur (Wire.Dyn.elem_nested msg i j)
          ~slot:(table + (8 * j))
      done
[@@alloc_free]

and write_payload_at w cur (p : Wire.Payload.t) ~slot =
  let module W = Wire.Cursor.Writer in
  match p with
  | Wire.Payload.Zero_copy buf ->
      let len = Mem.Pinned.Buf.len buf in
      let pos = cur.zc_pos in
      cur.zc_pos <- cur.zc_pos + len;
      W.u32_at w ~pos:slot pos;
      W.u32_at w ~pos:(slot + 4) len;
      (* Data travels as its own gather entry; nothing written here. *)
      ()
  | Wire.Payload.Copied v | Wire.Payload.Literal v ->
      let pos = cur.stream_pos in
      cur.stream_pos <- cur.stream_pos + v.Mem.View.len;
      W.seek w pos;
      W.view_bytes w v;
      W.u32_at w ~pos:slot pos;
      W.u32_at w ~pos:(slot + 4) v.Mem.View.len
[@@alloc_free]

let write_msg_generic plan w msg = write_msg w plan msg ~hpos:0
[@@alloc_free]

(* [run] owns the cursor init / postcondition bookkeeping around a writer
   body, so specialized (codegen-folded) writers share the exact contract of
   the generic one. Every store charges the writer's own meter. *)
let run plan w msg ~write =
  plan.stream_pos <- plan.header_len;
  plan.zc_pos <- plan.header_len + plan.stream_len;
  write plan w msg;
  assert (plan.stream_pos = plan.header_len + plan.stream_len);
  assert (plan.zc_pos = plan.total_len)
[@@alloc_free]

let write plan w msg = run plan w msg ~write:write_msg_generic

(* --- Deserializing ---------------------------------------------------- *)

let max_depth = 32

let rec read_msg ~cpu ?(depth = 0) schema (desc : Schema.Desc.message) buf
    ~hpos =
  if depth > max_depth then malformed "nesting deeper than %d" max_depth;
  let module R = Wire.Cursor.Reader in
  let view = Mem.Pinned.Buf.view buf in
  let total = view.Mem.View.len in
  if hpos < 0 || hpos + 4 > total then malformed "header position out of range";
  let r = R.create ~cpu view in
  R.seek r hpos;
  let bw = R.u32 r in
  let nfields = Array.length desc.Schema.Desc.fields in
  if bw <> bitmap_words nfields then
    malformed "bitmap size %d does not match schema for %s" bw
      desc.Schema.Desc.msg_name;
  if hpos + 4 + (4 * bw) > total then malformed "bitmap out of range";
  let words = Array.init bw (fun _ -> R.u32 r) in
  let present i = words.(i / 32) land (1 lsl (i mod 32)) <> 0 in
  let msg = Wire.Dyn.create desc in
  let slot_base = hpos + 4 + (4 * bw) in
  let k = ref 0 in
  Array.iteri
    (fun i (field : Schema.Desc.field) ->
      if present i then begin
        let slot = slot_base + (8 * !k) in
        incr k;
        if slot + 8 > total then malformed "info slot out of range";
        read_field ~cpu ~depth schema field buf r msg i ~slot ~total
      end)
    desc.Schema.Desc.fields;
  msg

(* Reads present field [i] straight into [msg]'s columns. *)
and read_field ~cpu ~depth schema (field : Schema.Desc.field) buf r msg i ~slot
    ~total =
  let module R = Wire.Cursor.Reader in
  Memmodel.Cpu.charge_op cpu Memmodel.Cpu.Deser Memmodel.Cpu.Per_call;
  match field.Schema.Desc.label with
  | Schema.Desc.Repeated ->
      R.seek r slot;
      let table = R.u32 r in
      let count = R.u32 r in
      if count < 0 || table < 0 || table + (8 * count) > total then
        malformed "repeated field table out of range";
      Wire.Dyn.touch_list msg i;
      for j = 0 to count - 1 do
        read_element ~cpu ~depth schema field buf r msg i ~repeated:true
          ~slot:(table + (8 * j))
          ~total
      done
  | Schema.Desc.Singular ->
      read_element ~cpu ~depth schema field buf r msg i ~repeated:false ~slot
        ~total

and read_element ~cpu ~depth schema (field : Schema.Desc.field) buf r msg i
    ~repeated ~slot ~total =
  let module R = Wire.Cursor.Reader in
  R.seek r slot;
  match field.Schema.Desc.ty with
  | Schema.Desc.Scalar _ ->
      (* Float fields keep their bits in the word column too. *)
      let v = R.u64 r in
      if repeated then Wire.Dyn.append_int_at msg i v
      else Wire.Dyn.set_int_at msg i v
  | Schema.Desc.Str | Schema.Desc.Bytes ->
      let off = R.u32 r in
      let len = R.u32 r in
      if off < 0 || len < 0 || off + len > total then
        malformed "payload [%d, %d) out of object of %d bytes" off (off + len)
          total;
      (* Zero-copy deserialization: the field is a window into the receive
         buffer, holding its own reference. *)
      let sub = Mem.Pinned.Buf.sub buf ~off ~len in
      Mem.Pinned.Buf.incr_ref ~cpu sub;
      let p = Wire.Payload.Zero_copy sub in
      if repeated then Wire.Dyn.append_payload_at msg i p
      else Wire.Dyn.set_payload_at msg i p
  | Schema.Desc.Message name -> (
      let off = R.u32 r in
      let hlen = R.u32 r in
      if off < 0 || hlen < 4 || off + hlen > total then
        malformed "nested header out of range";
      match Schema.Desc.find_message schema name with
      | None -> malformed "unknown nested message %s" name
      | Some nested_desc ->
          let saved = R.pos r in
          let nested =
            read_msg ~cpu ~depth:(depth + 1) schema nested_desc buf ~hpos:off
          in
          R.seek r saved;
          if repeated then Wire.Dyn.append_nested_at msg i nested
          else Wire.Dyn.set_nested_at msg i nested)

let deserialize ~cpu schema desc buf = read_msg ~cpu schema desc buf ~hpos:0

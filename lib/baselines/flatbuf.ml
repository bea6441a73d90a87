exception Decode_error of string

let name = "flatbuffers"

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* --- Sizing ----------------------------------------------------------- *)

let rec table_len msg = 4 + (8 * Wire.Dyn.present_count msg)

(* Bytes field [i] (element [j] when [j >= 0]) adds past its table slot. *)
and elem_extra msg i (field : Schema.Desc.field) ~j =
  match field.Schema.Desc.ty with
  | Schema.Desc.Scalar _ -> 0
  | Schema.Desc.Str | Schema.Desc.Bytes ->
      Wire.Payload.len
        (if j < 0 then Wire.Dyn.payload_at msg i else Wire.Dyn.elem_payload msg i j)
  | Schema.Desc.Message _ ->
      total_msg
        (if j < 0 then Wire.Dyn.nested_at msg i else Wire.Dyn.elem_nested msg i j)

and field_extra msg i (field : Schema.Desc.field) =
  match field.Schema.Desc.label with
  | Schema.Desc.Singular -> elem_extra msg i field ~j:(-1)
  | Schema.Desc.Repeated ->
      let n = Wire.Dyn.count msg i in
      let acc = ref (8 * n) in
      for j = 0 to n - 1 do
        acc := !acc + elem_extra msg i field ~j
      done;
      !acc

and total_msg msg =
  let fields = (Wire.Dyn.desc msg).Schema.Desc.fields in
  let extra = ref 0 in
  for i = 0 to Array.length fields - 1 do
    if Wire.Dyn.mem msg i then extra := !extra + field_extra msg i fields.(i)
  done;
  table_len msg + !extra

let total_buffer msg = 4 + total_msg msg

(* --- Building (back-to-front) ----------------------------------------- *)

type slot =
  | S_inline of int64
  | S_ref of int * int (* target position, length *)
  | S_vec of int * int (* vector position, element count *)

type builder = {
  w : Wire.Cursor.Writer.t;
  scratch : Mem.View.t;
  mutable head : int;
}

let push_payload b (p : Wire.Payload.t) =
  let v = Wire.Payload.view p in
  b.head <- b.head - v.Mem.View.len;
  Wire.Cursor.Writer.seek b.w b.head;
  Wire.Cursor.Writer.view_bytes b.w v;
  b.head

let write_slot b ~pos slot =
  let module W = Wire.Cursor.Writer in
  W.seek b.w pos;
  match slot with
  | S_inline v -> W.u64 b.w v
  | S_ref (target, len) ->
      W.u32 b.w (target - pos);
      W.u32 b.w len
  | S_vec (target, count) ->
      W.u32 b.w (target - pos);
      W.u32 b.w count

(* Field [i] itself when [j < 0], else its element [j]. *)
let rec build_elem b msg i (field : Schema.Desc.field) ~j =
  match field.Schema.Desc.ty with
  | Schema.Desc.Scalar _ ->
      S_inline (if j < 0 then Wire.Dyn.int_at msg i else Wire.Dyn.elem_int msg i j)
  | Schema.Desc.Str | Schema.Desc.Bytes ->
      let p =
        if j < 0 then Wire.Dyn.payload_at msg i else Wire.Dyn.elem_payload msg i j
      in
      let pos = push_payload b p in
      S_ref (pos, Wire.Payload.len p)
  | Schema.Desc.Message _ ->
      let m =
        if j < 0 then Wire.Dyn.nested_at msg i else Wire.Dyn.elem_nested msg i j
      in
      let pos = build_msg b m in
      S_ref (pos, 0)

and build_field b msg i (field : Schema.Desc.field) =
  match field.Schema.Desc.label with
  | Schema.Desc.Singular -> build_elem b msg i field ~j:(-1)
  | Schema.Desc.Repeated ->
      let count = Wire.Dyn.count msg i in
      let slots = Array.init count (fun j -> build_elem b msg i field ~j) in
      b.head <- b.head - (8 * count);
      let vec = b.head in
      Array.iteri (fun j slot -> write_slot b ~pos:(vec + (8 * j)) slot) slots;
      S_vec (vec, count)

and build_msg b msg =
  if Array.length (Wire.Dyn.desc msg).Schema.Desc.fields > 32 then
    invalid_arg "Flatbuf: messages are limited to 32 fields";
  (* Children first: back-to-front building places them at higher
     positions, so relative offsets from the table are positive. *)
  let fields = (Wire.Dyn.desc msg).Schema.Desc.fields in
  let slots = ref [] in
  for i = 0 to Array.length fields - 1 do
    if Wire.Dyn.mem msg i then slots := (i, build_field b msg i fields.(i)) :: !slots
  done;
  let slots = List.rev !slots in
  b.head <- b.head - table_len msg;
  let table = b.head in
  let module W = Wire.Cursor.Writer in
  W.seek b.w table;
  let bitmap =
    List.fold_left (fun acc (i, _) -> acc lor (1 lsl i)) 0 slots
  in
  W.u32 b.w bitmap;
  List.iteri
    (fun k (_, slot) -> write_slot b ~pos:(table + 4 + (8 * k)) slot)
    slots;
  table

let build ~cpu ep msg =
  let size = total_buffer msg in
  let scratch = Mem.Arena.alloc ~cpu (Net.Endpoint.arena ep) ~len:size in
  let w = Wire.Cursor.Writer.create ~cpu scratch in
  let b = { w; scratch; head = size } in
  let root = build_msg b msg in
  b.head <- b.head - 4;
  Wire.Cursor.Writer.seek b.w b.head;
  Wire.Cursor.Writer.u32 b.w (root - b.head);
  assert (b.head = 0);
  b.scratch

let serialize_and_send tr ~dst msg =
  let ep = Net.Transport.endpoint tr in
  let cpu = Net.Endpoint.cpu ep in
  let headroom = Net.Transport.headroom tr in
  let finished = build ~cpu ep msg in
  if finished.Mem.View.len > Net.Transport.max_msg_len tr then
    invalid_arg "Flatbuf.serialize_and_send: message exceeds frame";
  let staging =
    Net.Endpoint.alloc_tx ep ~len:(headroom + finished.Mem.View.len)
  in
  (* Second copy: the contiguous builder output moves into DMA-safe
     staging; the source is cache-hot from the build. *)
  Mem.Pinned.Buf.blit_from ~cpu staging ~src:finished ~dst_off:headroom;
  Net.Transport.send_inline tr ~dst ~segments:[ staging ]

(* --- Reading (zero-copy) ---------------------------------------------- *)

let max_depth = 32

let rec read_msg ~cpu ?(depth = 0) schema (desc : Schema.Desc.message) buf
    ~pos =
  if depth > max_depth then fail "nesting deeper than %d" max_depth;
  let module R = Wire.Cursor.Reader in
  let view = Mem.Pinned.Buf.view buf in
  let total = view.Mem.View.len in
  if pos < 0 || pos + 4 > total then fail "table position out of range";
  let r = R.create ~cpu view in
  R.seek r pos;
  let bitmap = R.u32 r in
  let msg = Wire.Dyn.create desc in
  let k = ref 0 in
  Array.iteri
    (fun i (field : Schema.Desc.field) ->
      if bitmap land (1 lsl i) <> 0 then begin
        let slot = pos + 4 + (8 * !k) in
        incr k;
        if slot + 8 > total then fail "slot out of range";
        let v = read_value ~cpu ~depth schema field buf r ~slot ~total in
        Wire.Dyn.set msg field.Schema.Desc.field_name v
      end)
    desc.Schema.Desc.fields;
  msg

and read_value ~cpu ~depth schema (field : Schema.Desc.field) buf r ~slot
    ~total =
  match field.Schema.Desc.label with
  | Schema.Desc.Repeated ->
      let module R = Wire.Cursor.Reader in
      R.seek r slot;
      let rel = R.u32 r in
      let count = R.u32 r in
      let vec = slot + rel in
      if vec < 0 || vec + (8 * count) > total then fail "vector out of range";
      let elems =
        List.init count (fun j ->
            read_element ~cpu ~depth schema field buf r
              ~slot:(vec + (8 * j))
              ~total)
      in
      Wire.Dyn.List elems
  | Schema.Desc.Singular ->
      read_element ~cpu ~depth schema field buf r ~slot ~total

and read_element ~cpu ~depth schema (field : Schema.Desc.field) buf r ~slot
    ~total =
  let module R = Wire.Cursor.Reader in
  R.seek r slot;
  match field.Schema.Desc.ty with
  | Schema.Desc.Scalar Schema.Desc.Float64 ->
      Wire.Dyn.Float (Int64.float_of_bits (R.u64 r))
  | Schema.Desc.Scalar _ -> Wire.Dyn.Int (R.u64 r)
  | Schema.Desc.Str | Schema.Desc.Bytes ->
      let rel = R.u32 r in
      let len = R.u32 r in
      let target = slot + rel in
      if target < 0 || len < 0 || target + len > total then
        fail "payload out of range";
      let sub = Mem.Pinned.Buf.sub buf ~off:target ~len in
      Mem.Pinned.Buf.incr_ref ~cpu sub;
      Wire.Dyn.Payload (Wire.Payload.Zero_copy sub)
  | Schema.Desc.Message mname -> (
      let rel = R.u32 r in
      let _zero = R.u32 r in
      match Schema.Desc.find_message schema mname with
      | None -> fail "unknown message %s" mname
      | Some nested_desc ->
          let saved = R.pos r in
          let nested =
            read_msg ~cpu ~depth:(depth + 1) schema nested_desc buf
              ~pos:(slot + rel)
          in
          R.seek r saved;
          Wire.Dyn.Nested nested)

let deserialize ~cpu schema desc buf =
  let module R = Wire.Cursor.Reader in
  let view = Mem.Pinned.Buf.view buf in
  if view.Mem.View.len < 4 then fail "buffer too small";
  let r = R.create ~cpu view in
  let root = R.u32 r in
  read_msg ~cpu schema desc buf ~pos:root

exception Decode_error of string

let name = "protobuf"

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* Wire types. *)
let wt_varint = 0

let wt_fixed64 = 1

let wt_len = 2

let key ~number ~wt = Int64.of_int ((number lsl 3) lor wt)

let scalar_is_float = function
  | Schema.Desc.Float64 -> true
  | Schema.Desc.Bool | Schema.Desc.Int32 | Schema.Desc.Int64
  | Schema.Desc.UInt32 | Schema.Desc.UInt64 ->
      false

(* --- Sizing ----------------------------------------------------------- *)

let varint_len = Wire.Cursor.varint_len

(* Sizing and encoding walk the message's columns by field index (no boxed
   values): present fields in schema order, repeated fields element by
   element. *)
let is_float (field : Schema.Desc.field) =
  match field.Schema.Desc.ty with
  | Schema.Desc.Scalar s -> scalar_is_float s
  | Schema.Desc.Str | Schema.Desc.Bytes | Schema.Desc.Message _ -> false

(* Repeated non-float scalars travel packed. *)
let is_packed (field : Schema.Desc.field) =
  match field.Schema.Desc.ty with
  | Schema.Desc.Scalar s -> not (scalar_is_float s)
  | Schema.Desc.Str | Schema.Desc.Bytes | Schema.Desc.Message _ -> false

let delimited_len ~klen body = klen + varint_len (Int64.of_int body) + body

let rec field_len msg i (field : Schema.Desc.field) =
  let klen = varint_len (key ~number:field.Schema.Desc.number ~wt:0) in
  let n = Wire.Dyn.count msg i in
  match (field.Schema.Desc.label, field.Schema.Desc.ty) with
  | Schema.Desc.Repeated, Schema.Desc.Scalar _ when is_packed field ->
      (* Packed: one key, length, then varints. *)
      if n = 0 then klen + varint_len 0L
      else delimited_len ~klen (packed_len msg i n)
  | Schema.Desc.Repeated, Schema.Desc.Scalar _ ->
      (* One key per element; payloads/messages are length-delimited. *)
      n * delimited_len ~klen 8
  | Schema.Desc.Repeated, (Schema.Desc.Str | Schema.Desc.Bytes) ->
      let acc = ref 0 in
      for j = 0 to n - 1 do
        acc :=
          !acc
          + delimited_len ~klen (Wire.Payload.len (Wire.Dyn.elem_payload msg i j))
      done;
      !acc
  | Schema.Desc.Repeated, Schema.Desc.Message _ ->
      let acc = ref 0 in
      for j = 0 to n - 1 do
        acc := !acc + delimited_len ~klen (encoded_len (Wire.Dyn.elem_nested msg i j))
      done;
      !acc
  | Schema.Desc.Singular, Schema.Desc.Scalar _ ->
      if is_float field then klen + 8
      else klen + varint_len (Wire.Dyn.int_at msg i)
  | Schema.Desc.Singular, (Schema.Desc.Str | Schema.Desc.Bytes) ->
      delimited_len ~klen (Wire.Payload.len (Wire.Dyn.payload_at msg i))
  | Schema.Desc.Singular, Schema.Desc.Message _ ->
      delimited_len ~klen (encoded_len (Wire.Dyn.nested_at msg i))

and packed_len msg i n =
  let body = ref 0 in
  for j = 0 to n - 1 do
    body := !body + varint_len (Wire.Dyn.elem_int msg i j)
  done;
  !body

and encoded_len msg =
  let fields = (Wire.Dyn.desc msg).Schema.Desc.fields in
  let total = ref 0 in
  for i = 0 to Array.length fields - 1 do
    if Wire.Dyn.mem msg i then total := !total + field_len msg i fields.(i)
  done;
  !total

(* --- Encoding --------------------------------------------------------- *)

let charge_field cpu =
  Memmodel.Cpu.charge_op cpu Memmodel.Cpu.Tx Memmodel.Cpu.Per_call

let rec encode_field ~cpu w msg i (field : Schema.Desc.field) =
  let module W = Wire.Cursor.Writer in
  let number = field.Schema.Desc.number in
  charge_field cpu;
  match field.Schema.Desc.label with
  | Schema.Desc.Repeated ->
      let n = Wire.Dyn.count msg i in
      if is_packed field then begin
        W.varint w (key ~number ~wt:wt_len);
        W.varint w (Int64.of_int (packed_len msg i n));
        for j = 0 to n - 1 do
          W.varint w (Wire.Dyn.elem_int msg i j)
        done
      end
      else
        for j = 0 to n - 1 do
          encode_element ~cpu w msg i field ~j
        done
  | Schema.Desc.Singular -> encode_element ~cpu w msg i field ~j:(-1)

(* Field [i] itself when [j < 0], else its element [j]. *)
and encode_element ~cpu w msg i (field : Schema.Desc.field) ~j =
  let module W = Wire.Cursor.Writer in
  let number = field.Schema.Desc.number in
  match field.Schema.Desc.ty with
  | Schema.Desc.Scalar _ ->
      let v = if j < 0 then Wire.Dyn.int_at msg i else Wire.Dyn.elem_int msg i j in
      if is_float field then begin
        W.varint w (key ~number ~wt:wt_fixed64);
        W.u64 w v
      end
      else begin
        W.varint w (key ~number ~wt:wt_varint);
        W.varint w v
      end
  | Schema.Desc.Str | Schema.Desc.Bytes ->
      let p =
        if j < 0 then Wire.Dyn.payload_at msg i else Wire.Dyn.elem_payload msg i j
      in
      W.varint w (key ~number ~wt:wt_len);
      W.varint w (Int64.of_int (Wire.Payload.len p));
      W.view_bytes w (Wire.Payload.view p)
  | Schema.Desc.Message _ ->
      let m =
        if j < 0 then Wire.Dyn.nested_at msg i else Wire.Dyn.elem_nested msg i j
      in
      W.varint w (key ~number ~wt:wt_len);
      W.varint w (Int64.of_int (encoded_len m));
      encode ~cpu w m

and encode ~cpu w msg =
  let fields = (Wire.Dyn.desc msg).Schema.Desc.fields in
  for i = 0 to Array.length fields - 1 do
    if Wire.Dyn.mem msg i then encode_field ~cpu w msg i fields.(i)
  done

let serialize_and_send tr ~dst msg =
  let ep = Net.Transport.endpoint tr in
  let cpu = Net.Endpoint.cpu ep in
  let headroom = Net.Transport.headroom tr in
  let body = encoded_len msg in
  if body > Net.Transport.max_msg_len tr then
    invalid_arg "Protobuf.serialize_and_send: message exceeds frame";
  let staging = Net.Endpoint.alloc_tx ep ~len:(headroom + body) in
  let window =
    Mem.View.sub (Mem.Pinned.Buf.view staging) ~off:headroom ~len:body
  in
  let w = Wire.Cursor.Writer.create ~cpu window in
  encode ~cpu w msg;
  Net.Transport.send_inline tr ~dst ~segments:[ staging ]

(* --- Decoding --------------------------------------------------------- *)

let field_by_number (desc : Schema.Desc.message) number =
  let n = Array.length desc.Schema.Desc.fields in
  let rec go i =
    if i >= n then None
    else if desc.Schema.Desc.fields.(i).Schema.Desc.number = number then
      Some desc.Schema.Desc.fields.(i)
    else go (i + 1)
  in
  go 0

(* Charge a cheap per-byte validation pass (UTF-8 check) — the baselines do
   this eagerly at deserialization time (§6.4). *)
let charge_validate cpu ~len =
  Memmodel.Cpu.charge cpu Memmodel.Cpu.Deser (0.3 *. float_of_int len)

let rec decode ~cpu ep schema (desc : Schema.Desc.message) (view : Mem.View.t) =
  let module R = Wire.Cursor.Reader in
  let r = R.create ~cpu view in
  let msg = Wire.Dyn.create desc in
  (try
     while R.remaining r > 0 do
       let k = Int64.to_int (R.varint r) in
       let number = k lsr 3 and wt = k land 7 in
       match field_by_number desc number with
       | None -> skip r wt
       | Some field -> decode_field ~cpu ep schema msg field r wt
     done
   with Invalid_argument _ -> fail "truncated message");
  msg

and skip r wt =
  let module R = Wire.Cursor.Reader in
  if wt = wt_varint then ignore (R.varint r)
  else if wt = wt_fixed64 then ignore (R.u64 r)
  else if wt = wt_len then begin
    let len = Int64.to_int (R.varint r) in
    if len < 0 || len > R.remaining r then fail "bad skip length";
    R.seek r (R.pos r + len)
  end
  else fail "unsupported wire type %d" wt

and decode_field ~cpu ep schema msg (field : Schema.Desc.field) r wt =
  let module R = Wire.Cursor.Reader in
  let fname = field.Schema.Desc.field_name in
  let add v =
    match field.Schema.Desc.label with
    | Schema.Desc.Repeated -> Wire.Dyn.append msg fname v
    | Schema.Desc.Singular -> Wire.Dyn.set msg fname v
  in
  match field.Schema.Desc.ty with
  | Schema.Desc.Scalar s when scalar_is_float s ->
      if wt <> wt_fixed64 then fail "double field with wire type %d" wt;
      add (Wire.Dyn.Float (Int64.float_of_bits (R.u64 r)))
  | Schema.Desc.Scalar _ ->
      if wt = wt_varint then add (Wire.Dyn.Int (R.varint r))
      else if wt = wt_len && field.Schema.Desc.label = Schema.Desc.Repeated
      then begin
        (* Packed repeated scalars. *)
        let len = Int64.to_int (R.varint r) in
        if len < 0 || len > R.remaining r then fail "bad packed length";
        let stop = R.pos r + len in
        let elems = ref [] in
        while R.pos r < stop do
          elems := Wire.Dyn.Int (R.varint r) :: !elems
        done;
        if R.pos r <> stop then fail "packed overrun";
        Wire.Dyn.set msg fname (Wire.Dyn.List (List.rev !elems))
      end
      else fail "scalar field with wire type %d" wt
  | Schema.Desc.Str | Schema.Desc.Bytes ->
      if wt <> wt_len then fail "payload field with wire type %d" wt;
      let len = Int64.to_int (R.varint r) in
      if len < 0 || len > R.remaining r then fail "bad payload length";
      let src = R.sub r ~len in
      (* Protobuf materialises field bytes: copy them out of the packet. *)
      let copied = Mem.Arena.copy_in ~cpu (Net.Endpoint.arena ep) src in
      if field.Schema.Desc.ty = Schema.Desc.Str then charge_validate cpu ~len;
      add (Wire.Dyn.Payload (Wire.Payload.Copied copied))
  | Schema.Desc.Message mname ->
      if wt <> wt_len then fail "message field with wire type %d" wt;
      let len = Int64.to_int (R.varint r) in
      if len < 0 || len > R.remaining r then fail "bad message length";
      let src = R.sub r ~len in
      let nested_desc =
        match Schema.Desc.find_message schema mname with
        | Some d -> d
        | None -> fail "unknown message %s" mname
      in
      add (Wire.Dyn.Nested (decode ~cpu ep schema nested_desc src))

let deserialize ~cpu ep schema desc buf =
  decode ~cpu ep schema desc (Mem.Pinned.Buf.view buf)

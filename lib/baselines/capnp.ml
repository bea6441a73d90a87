exception Decode_error of string

let name = "capnproto"

let segment_bytes = 2048

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* --- Building --------------------------------------------------------- *)

type seg = {
  id : int;
  view : Mem.View.t;
  w : Wire.Cursor.Writer.t;
  mutable used : int;
  capacity : int;
}

type builder = {
  cpu : Memmodel.Cpu.t;
  ep : Net.Endpoint.t;
  mutable segs_rev : seg list;
  mutable nsegs : int;
}

let new_seg b ~capacity =
  let view = Mem.Arena.alloc ~cpu:b.cpu (Net.Endpoint.arena b.ep) ~len:capacity in
  let seg =
    {
      id = b.nsegs;
      view;
      w = Wire.Cursor.Writer.create ~cpu:b.cpu view;
      used = 0;
      capacity;
    }
  in
  b.nsegs <- b.nsegs + 1;
  b.segs_rev <- seg :: b.segs_rev;
  seg

let alloc b n =
  if n > segment_bytes then begin
    (* Oversized blobs get a dedicated segment. *)
    let seg = new_seg b ~capacity:n in
    seg.used <- n;
    (seg, 0)
  end
  else begin
    let seg =
      match b.segs_rev with
      | seg :: _ when seg.used + n <= seg.capacity -> seg
      | _ -> new_seg b ~capacity:segment_bytes
    in
    let off = seg.used in
    seg.used <- seg.used + n;
    (seg, off)
  end

let write_slot seg ~pos (a, bb, c) =
  let module W = Wire.Cursor.Writer in
  W.seek seg.w pos;
  W.u32 seg.w a;
  W.u32 seg.w bb;
  W.u32 seg.w c

let write_scalar_slot seg ~pos v =
  let module W = Wire.Cursor.Writer in
  W.seek seg.w pos;
  W.u64 seg.w v;
  W.u32 seg.w 0

(* Field [i] itself when [j < 0], else its element [j]. *)
let rec build_elem b msg i (field : Schema.Desc.field) ~j seg ~pos =
  match field.Schema.Desc.ty with
  | Schema.Desc.Scalar _ ->
      write_scalar_slot seg ~pos
        (if j < 0 then Wire.Dyn.int_at msg i else Wire.Dyn.elem_int msg i j)
  | Schema.Desc.Str | Schema.Desc.Bytes ->
      let p =
        if j < 0 then Wire.Dyn.payload_at msg i else Wire.Dyn.elem_payload msg i j
      in
      let src = Wire.Payload.view p in
      let dseg, doff = alloc b src.Mem.View.len in
      Wire.Cursor.Writer.seek dseg.w doff;
      Wire.Cursor.Writer.view_bytes dseg.w src;
      write_slot seg ~pos (dseg.id, doff, src.Mem.View.len)
      (* view_bytes moved the writer; slots rewritten via seek are safe. *)
  | Schema.Desc.Message _ ->
      let m =
        if j < 0 then Wire.Dyn.nested_at msg i else Wire.Dyn.elem_nested msg i j
      in
      let nseg, noff = build_msg b m in
      write_slot seg ~pos (nseg.id, noff, 0)

and build_field b msg i (field : Schema.Desc.field) seg ~pos =
  match field.Schema.Desc.label with
  | Schema.Desc.Singular -> build_elem b msg i field ~j:(-1) seg ~pos
  | Schema.Desc.Repeated ->
      let count = Wire.Dyn.count msg i in
      let vseg, voff = alloc b (12 * count) in
      for j = 0 to count - 1 do
        build_elem b msg i field ~j vseg ~pos:(voff + (12 * j))
      done;
      write_slot seg ~pos (vseg.id, voff, count)

and build_msg b msg =
  let desc = Wire.Dyn.desc msg in
  let fields = desc.Schema.Desc.fields in
  if Array.length fields > 32 then
    invalid_arg "Capnp: messages are limited to 32 fields";
  let present = Wire.Dyn.present_count msg in
  let seg, off = alloc b (4 + (12 * present)) in
  Wire.Cursor.Writer.seek seg.w off;
  Wire.Cursor.Writer.u32 seg.w
    (if Array.length fields = 0 then 0 else Wire.Dyn.bitmap_word msg 0);
  let k = ref 0 in
  for i = 0 to Array.length fields - 1 do
    if Wire.Dyn.mem msg i then begin
      let pos = off + 4 + (12 * !k) in
      incr k;
      build_field b msg i fields.(i) seg ~pos
    end
  done;
  (seg, off)

let build_segments ~cpu ep msg =
  let b = { cpu; ep; segs_rev = []; nsegs = 0 } in
  let seg0, off0 = build_msg b msg in
  if seg0.id <> 0 || off0 <> 0 then fail "root struct must open segment 0";
  List.rev b.segs_rev

let build ~cpu ep msg =
  List.map
    (fun seg -> Mem.View.sub seg.view ~off:0 ~len:seg.used)
    (build_segments ~cpu ep msg)

let framing_len segs = 4 + (4 * List.length segs)

let serialize_and_send tr ~dst msg =
  let ep = Net.Transport.endpoint tr in
  let cpu = Net.Endpoint.cpu ep in
  let headroom = Net.Transport.headroom tr in
  let segs = build ~cpu ep msg in
  let body =
    framing_len segs
    + List.fold_left (fun acc s -> acc + s.Mem.View.len) 0 segs
  in
  if body > Net.Transport.max_msg_len tr then
    invalid_arg "Capnp.serialize_and_send: message exceeds frame";
  let staging = Net.Endpoint.alloc_tx ep ~len:(headroom + body) in
  let window =
    Mem.View.sub (Mem.Pinned.Buf.view staging) ~off:headroom ~len:body
  in
  let w = Wire.Cursor.Writer.create ~cpu window in
  Wire.Cursor.Writer.u32 w (List.length segs);
  List.iter (fun s -> Wire.Cursor.Writer.u32 w s.Mem.View.len) segs;
  (* Second copy: each segment moves into the DMA-safe staging buffer. *)
  List.iter (fun s -> Wire.Cursor.Writer.view_bytes w s) segs;
  Net.Transport.send_inline tr ~dst ~segments:[ staging ]

(* --- Reading ----------------------------------------------------------- *)

type frame = { bases : int array; lens : int array; total : int }

let parse_frame ~cpu view =
  let module R = Wire.Cursor.Reader in
  let r = R.create ~cpu view in
  if view.Mem.View.len < 4 then fail "missing segment table";
  let nsegs = R.u32 r in
  if nsegs <= 0 || nsegs > 4096 then fail "implausible segment count %d" nsegs;
  if view.Mem.View.len < 4 + (4 * nsegs) then fail "truncated segment table";
  let lens = Array.init nsegs (fun _ -> R.u32 r) in
  let bases = Array.make nsegs 0 in
  let running = ref (4 + (4 * nsegs)) in
  Array.iteri
    (fun i l ->
      bases.(i) <- !running;
      running := !running + l)
    lens;
  if !running > view.Mem.View.len then fail "segments exceed buffer";
  { bases; lens; total = view.Mem.View.len }

let resolve frame ~seg ~off ~len =
  if seg < 0 || seg >= Array.length frame.bases then fail "bad segment %d" seg;
  if off < 0 || len < 0 || off + len > frame.lens.(seg) then
    fail "range [%d, %d) outside segment %d" off (off + len) seg;
  frame.bases.(seg) + off

let max_depth = 32

let rec read_msg ~cpu ?(depth = 0) schema (desc : Schema.Desc.message) buf
    frame ~seg ~off =
  if depth > max_depth then fail "nesting deeper than %d" max_depth;
  let module R = Wire.Cursor.Reader in
  let pos = resolve frame ~seg ~off ~len:4 in
  let view = Mem.Pinned.Buf.view buf in
  let r = R.create ~cpu view in
  R.seek r pos;
  let bitmap = R.u32 r in
  let msg = Wire.Dyn.create desc in
  let k = ref 0 in
  Array.iteri
    (fun i (field : Schema.Desc.field) ->
      if bitmap land (1 lsl i) <> 0 then begin
        let slot_off = off + 4 + (12 * !k) in
        incr k;
        let slot = resolve frame ~seg ~off:slot_off ~len:12 in
        let v = read_value ~cpu ~depth schema field buf frame r ~slot in
        Wire.Dyn.set msg field.Schema.Desc.field_name v
      end)
    desc.Schema.Desc.fields;
  msg

and read_value ~cpu ~depth schema (field : Schema.Desc.field) buf frame r
    ~slot =
  match field.Schema.Desc.label with
  | Schema.Desc.Repeated ->
      let module R = Wire.Cursor.Reader in
      R.seek r slot;
      let vseg = R.u32 r in
      let voff = R.u32 r in
      let count = R.u32 r in
      if count > 100_000 then fail "implausible vector length %d" count;
      ignore (resolve frame ~seg:vseg ~off:voff ~len:(12 * count));
      let elems =
        List.init count (fun j ->
            let slot =
              resolve frame ~seg:vseg ~off:(voff + (12 * j)) ~len:12
            in
            read_element ~cpu ~depth schema field buf frame r ~slot)
      in
      Wire.Dyn.List elems
  | Schema.Desc.Singular ->
      read_element ~cpu ~depth schema field buf frame r ~slot

and read_element ~cpu ~depth schema (field : Schema.Desc.field) buf frame r
    ~slot =
  let module R = Wire.Cursor.Reader in
  R.seek r slot;
  match field.Schema.Desc.ty with
  | Schema.Desc.Scalar Schema.Desc.Float64 ->
      Wire.Dyn.Float (Int64.float_of_bits (R.u64 r))
  | Schema.Desc.Scalar _ -> Wire.Dyn.Int (R.u64 r)
  | Schema.Desc.Str | Schema.Desc.Bytes ->
      let dseg = R.u32 r in
      let doff = R.u32 r in
      let len = R.u32 r in
      let pos = resolve frame ~seg:dseg ~off:doff ~len in
      let sub = Mem.Pinned.Buf.sub buf ~off:pos ~len in
      Mem.Pinned.Buf.incr_ref ~cpu sub;
      Wire.Dyn.Payload (Wire.Payload.Zero_copy sub)
  | Schema.Desc.Message mname -> (
      let nseg = R.u32 r in
      let noff = R.u32 r in
      let _zero = R.u32 r in
      match Schema.Desc.find_message schema mname with
      | None -> fail "unknown message %s" mname
      | Some nested_desc ->
          let saved = R.pos r in
          let nested =
            read_msg ~cpu ~depth:(depth + 1) schema nested_desc buf frame
              ~seg:nseg ~off:noff
          in
          R.seek r saved;
          Wire.Dyn.Nested nested)

let deserialize ~cpu schema desc buf =
  let view = Mem.Pinned.Buf.view buf in
  let frame = parse_frame ~cpu view in
  read_msg ~cpu schema desc buf frame ~seg:0 ~off:0

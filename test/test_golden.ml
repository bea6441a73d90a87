(* Golden frames: a fixed-seed corpus of messages over every field kind —
   absent fields, empty and full repeated fields, nested and repeated
   nested messages, copied/literal/zero-copy payloads, and a message wider
   than one bitmap word — serialized by the generic writer and by the
   generated folded writer of [Golden_msgs]. The concatenated frames are
   digested; the digest was recorded from the Option-slot message
   representation, so any drift of the wire bytes shows up here. *)

let golden_digest = "dd00a502b17c01cd599e5348a879d80b"

let space = Mem.Addr_space.create ()

let pool =
  Mem.Pinned.Pool.create space ~name:"golden"
    ~classes:[ (64, 1024); (1024, 1024); (65536, 8) ]

let arena = Mem.Arena.create space ~capacity:(1 lsl 22)

let gen_string rng n =
  String.init n (fun i -> Char.chr (((i * 13) + Sim.Rng.int rng 95 + 32) land 0x7f))

let gen_payload rng =
  let s = gen_string rng (Sim.Rng.int rng 700) in
  match Sim.Rng.int rng 3 with
  | 0 -> Wire.Payload.Literal (Mem.View.of_string space s)
  | 1 -> Wire.Payload.Copied (Mem.Arena.copy_in arena (Mem.View.of_string space s))
  | _ ->
      let s = if s = "" then "z" else s in
      let buf = Mem.Pinned.Buf.alloc pool ~len:(String.length s) in
      Mem.Pinned.Buf.fill buf s;
      Wire.Payload.Zero_copy buf

let child_desc = Schema.Desc.message Golden_msgs.schema "Child"

let gen_child rng ~p =
  let c = Wire.Dyn.create child_desc in
  if Sim.Rng.bool rng p then Wire.Dyn.set_int c "seq" (Sim.Rng.next_int64 rng);
  if Sim.Rng.bool rng p then Wire.Dyn.set_payload c "blob" (gen_payload rng);
  c

let gen_value rng ~p (f : Schema.Desc.field) =
  match f.Schema.Desc.ty with
  | Schema.Desc.Scalar Schema.Desc.Float64 -> Wire.Dyn.Float (Sim.Rng.float rng)
  | Schema.Desc.Scalar Schema.Desc.Bool ->
      Wire.Dyn.Int (if Sim.Rng.bool rng 0.5 then 1L else 0L)
  | Schema.Desc.Scalar _ -> Wire.Dyn.Int (Sim.Rng.next_int64 rng)
  | Schema.Desc.Str | Schema.Desc.Bytes -> Wire.Dyn.Payload (gen_payload rng)
  | Schema.Desc.Message _ -> Wire.Dyn.Nested (gen_child rng ~p)

(* Each field is present with probability [p]; a present repeated field
   holds 0-3 elements. *)
let gen_message rng desc ~p =
  let msg = Wire.Dyn.create desc in
  Array.iter
    (fun (f : Schema.Desc.field) ->
      if Sim.Rng.bool rng p then
        let name = f.Schema.Desc.field_name in
        match f.Schema.Desc.label with
        | Schema.Desc.Singular -> Wire.Dyn.set msg name (gen_value rng ~p f)
        | Schema.Desc.Repeated ->
            let n = Sim.Rng.int rng 4 in
            if n = 0 then Wire.Dyn.set msg name (Wire.Dyn.List [])
            else
              for _ = 1 to n do
                let v = gen_value rng ~p f in
                Wire.Dyn.append msg name v
              done)
    desc.Schema.Desc.fields;
  msg

(* The whole object as the wire sees it: header and copied region from the
   writer, then the zero-copy payloads in gather order. *)
let frame ?write msg =
  let plan = Cornflakes.Format_.measure msg in
  let contiguous =
    plan.Cornflakes.Format_.header_len + plan.Cornflakes.Format_.stream_len
  in
  let data = Bytes.make plan.Cornflakes.Format_.total_len '\000' in
  let w =
    Wire.Cursor.Writer.create
      (Mem.View.make ~addr:0 ~data ~off:0 ~len:contiguous)
  in
  (match write with
  | None -> Cornflakes.Format_.write plan w msg
  | Some f -> Cornflakes.Format_.run plan w msg ~write:f);
  let off = ref contiguous in
  Cornflakes.Format_.iter_zc plan (fun zb ->
      Mem.Pinned.Buf.blit_to zb ~dst:data ~dst_off:!off;
      off := !off + Mem.Pinned.Buf.len zb);
  Bytes.to_string data

let presences = [| 1.0; 0.85; 0.6; 0.3; 0.0 |]

(* (generic frame, folded frame) for the whole corpus; each message's
   zero-copy references are dropped once it is framed. *)
let corpus () =
  let rng = Sim.Rng.create ~seed:2024 in
  let out = ref [] in
  let add desc ~write ~p =
    let msg = gen_message rng desc ~p in
    out := (frame msg, frame ~write msg) :: !out;
    Wire.Dyn.release msg
  in
  for k = 0 to 39 do
    let p = presences.(k mod Array.length presences) in
    add Golden_msgs.All.desc ~write:Golden_msgs.All.write_folded ~p;
    add Golden_msgs.Child.desc ~write:Golden_msgs.Child.write_folded ~p;
    if k < 15 then add Golden_msgs.Wide.desc ~write:Golden_msgs.Wide.write_folded ~p
  done;
  List.rev !out

let test_golden_frames () =
  let frames = corpus () in
  let all = Buffer.create 65536 in
  List.iter
    (fun (generic, folded) ->
      Alcotest.(check string) "folded = generic" generic folded;
      Buffer.add_string all generic)
    frames;
  Alcotest.(check string)
    "corpus digest" golden_digest
    (Digest.to_hex (Digest.string (Buffer.contents all)));
  Alcotest.(check int) "zero-copy payloads all released" 0
    (Mem.Pinned.Pool.live pool)

(* --- by-name vs by-index builds ------------------------------------------ *)

(* What one field of a generated message holds. *)
type spec = One of Wire.Dyn.value | Many of Wire.Dyn.value list

let gen_specs rng desc ~p =
  let specs = ref [] in
  Array.iteri
    (fun i (f : Schema.Desc.field) ->
      if Sim.Rng.bool rng p then
        match f.Schema.Desc.label with
        | Schema.Desc.Singular -> specs := (i, One (gen_value rng ~p f)) :: !specs
        | Schema.Desc.Repeated ->
            let n = Sim.Rng.int rng 4 in
            let vs = List.init n (fun _ -> gen_value rng ~p f) in
            specs := (i, Many vs) :: !specs)
    desc.Schema.Desc.fields;
  List.rev !specs

let build_by_name desc specs =
  let m = Wire.Dyn.create desc in
  List.iter
    (fun (i, spec) ->
      let name = desc.Schema.Desc.fields.(i).Schema.Desc.field_name in
      match spec with
      | One v -> Wire.Dyn.set m name v
      | Many vs -> Wire.Dyn.set m name (Wire.Dyn.List vs))
    specs;
  m

let store_at m i (v : Wire.Dyn.value) ~repeated =
  match (v, repeated) with
  | Wire.Dyn.Int x, false -> Wire.Dyn.set_int_at m i x
  | Wire.Dyn.Float x, false -> Wire.Dyn.set_float_at m i x
  | Wire.Dyn.Payload p, false -> Wire.Dyn.set_payload_at m i p
  | Wire.Dyn.Nested c, false -> Wire.Dyn.set_nested_at m i c
  | Wire.Dyn.Int x, true -> Wire.Dyn.append_int_at m i x
  | Wire.Dyn.Float x, true -> Wire.Dyn.append_float_at m i x
  | Wire.Dyn.Payload p, true -> Wire.Dyn.append_payload_at m i p
  | Wire.Dyn.Nested c, true -> Wire.Dyn.append_nested_at m i c
  | Wire.Dyn.List _, _ -> invalid_arg "store_at: list"

let build_by_index desc specs =
  let m = Wire.Dyn.create desc in
  List.iter
    (fun (i, spec) ->
      match spec with
      | One v -> store_at m i v ~repeated:false
      | Many vs ->
          Wire.Dyn.touch_list m i;
          List.iter (fun v -> store_at m i v ~repeated:true) vs)
    specs;
  m

(* The frame in a pinned receive buffer, parsed back by the Dyn oracle. *)
let parse_back desc frame_bytes =
  let buf = Mem.Pinned.Buf.alloc pool ~len:(max 1 (String.length frame_bytes)) in
  Mem.Pinned.Buf.fill buf frame_bytes;
  let buf =
    if String.length frame_bytes = Mem.Pinned.Buf.len buf then buf
    else Mem.Pinned.Buf.sub buf ~off:0 ~len:(String.length frame_bytes)
  in
  let back = Cornflakes.Format_.deserialize Golden_msgs.schema desc buf in
  (back, buf)

let qcheck_by_name_equals_by_index =
  QCheck.Test.make ~name:"by-name build = by-index build, and parses back"
    ~count:200 QCheck.small_nat (fun seed ->
      let rng = Sim.Rng.create ~seed:(seed + 77) in
      let desc =
        match seed mod 3 with
        | 0 -> Golden_msgs.All.desc
        | 1 -> Golden_msgs.Wide.desc
        | _ -> Golden_msgs.Child.desc
      in
      let specs = gen_specs rng desc ~p:(Sim.Rng.float rng) in
      let by_name = build_by_name desc specs in
      let by_index = build_by_index desc specs in
      let f_name = frame by_name and f_index = frame by_index in
      let back, buf = parse_back desc f_name in
      let ok =
        Wire.Dyn.equal by_name by_index
        && String.equal f_name f_index
        && Wire.Dyn.equal back by_name
      in
      Wire.Dyn.release back;
      Mem.Pinned.Buf.decr_ref buf;
      Wire.Dyn.release by_name;
      ok)

let suite =
  [
    Alcotest.test_case "golden frames, generic and folded" `Quick test_golden_frames;
    QCheck_alcotest.to_alcotest qcheck_by_name_equals_by_index;
  ]

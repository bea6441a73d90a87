(* Cornflakes wire-format roundtrip tests: serialize a dynamic message into
   a contiguous object (header + copied region + zero-copy region, exactly as
   the NIC would gather it) and deserialize it back. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

let schema =
  Schema.Parser.parse
    {|
    message Child {
      uint64 seq = 1;
      bytes blob = 2;
    }
    message Everything {
      uint64 id = 1;
      double score = 2;
      string name = 3;
      repeated bytes tags = 4;
      Child child = 5;
      repeated Child children = 6;
      repeated uint64 nums = 7;
    }
    |}

let everything = Schema.Desc.message schema "Everything"

let child = Schema.Desc.message schema "Child"

type env = {
  space : Mem.Addr_space.t;
  pool : Mem.Pinned.Pool.t;
  arena : Mem.Arena.t;
}

let make_env () =
  let space = Mem.Addr_space.create () in
  let pool =
    Mem.Pinned.Pool.create space ~name:"fmt"
      ~classes:[ (64, 64); (256, 64); (1024, 64); (4096, 32); (16384, 16) ]
  in
  { space; pool; arena = Mem.Arena.create space ~capacity:(1 lsl 16) }

(* Build a payload of the requested flavour carrying [s]. *)
let payload env flavour s =
  match flavour with
  | `Literal -> Wire.Payload.Literal (Mem.View.of_string env.space s)
  | `Copied -> Wire.Payload.Copied (Mem.Arena.copy_in ~cpu:none env.arena (Mem.View.of_string env.space s))
  | `Zero_copy ->
      let buf =
        Mem.Pinned.Buf.alloc ~cpu:none env.pool ~len:(max 1 (String.length s))
      in
      Mem.Pinned.Buf.fill ~cpu:none buf s;
      let buf =
        if String.length s = Mem.Pinned.Buf.len buf then buf
        else Mem.Pinned.Buf.sub buf ~off:0 ~len:(String.length s)
      in
      Wire.Payload.Zero_copy buf

(* Gather the serialized object into one pinned buffer, the way the wire
   sees it. *)
let serialize env msg =
  let plan = Cornflakes.Format_.measure msg in
  let buf = Mem.Pinned.Buf.alloc ~cpu:none env.pool ~len:(max 1 plan.Cornflakes.Format_.total_len) in
  let contiguous =
    plan.Cornflakes.Format_.header_len + plan.Cornflakes.Format_.stream_len
  in
  let w =
    Wire.Cursor.Writer.create ~cpu:none
      (Mem.View.sub (Mem.Pinned.Buf.view buf) ~off:0 ~len:contiguous)
  in
  Cornflakes.Format_.write plan w msg;
  let off = ref contiguous in
  Cornflakes.Format_.iter_zc plan (fun zb ->
      Mem.Pinned.Buf.blit_from ~cpu:none buf ~src:(Mem.Pinned.Buf.view zb) ~dst_off:!off;
      off := !off + Mem.Pinned.Buf.len zb);
  (plan, buf)

let roundtrip env msg =
  let _plan, buf = serialize env msg in
  Cornflakes.Format_.deserialize ~cpu:none schema (Wire.Dyn.desc msg) buf

let check_roundtrip env msg =
  let back = roundtrip env msg in
  if not (Wire.Dyn.equal msg back) then
    Alcotest.failf "roundtrip mismatch:@.%a@.vs@.%a" Wire.Dyn.pp msg Wire.Dyn.pp
      back

let test_scalars_only () =
  let env = make_env () in
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set_int msg "id" 0xdeadbeefL;
  Wire.Dyn.set msg "score" (Wire.Dyn.Float 2.5);
  check_roundtrip env msg

let test_empty_message () =
  let env = make_env () in
  check_roundtrip env (Wire.Dyn.create everything)

let test_payload_flavours () =
  let env = make_env () in
  List.iter
    (fun flavour ->
      let msg = Wire.Dyn.create everything in
      Wire.Dyn.set_payload msg "name" (payload env flavour "cornflakes");
      check_roundtrip env msg)
    [ `Literal; `Copied; `Zero_copy ]

let test_empty_payload () =
  let env = make_env () in
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set_payload msg "name" (payload env `Literal "");
  check_roundtrip env msg

let test_repeated_mixed_flavours () =
  let env = make_env () in
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.append msg "tags" (Wire.Dyn.Payload (payload env `Copied "aa"));
  Wire.Dyn.append msg "tags"
    (Wire.Dyn.Payload (payload env `Zero_copy (String.make 600 'z')));
  Wire.Dyn.append msg "tags" (Wire.Dyn.Payload (payload env `Literal "ccc"));
  Wire.Dyn.append msg "tags"
    (Wire.Dyn.Payload (payload env `Zero_copy (String.make 700 'w')));
  check_roundtrip env msg

let test_repeated_scalars () =
  let env = make_env () in
  let msg = Wire.Dyn.create everything in
  List.iter
    (fun v -> Wire.Dyn.append msg "nums" (Wire.Dyn.Int v))
    [ 0L; 1L; 42L; Int64.max_int; -1L ];
  check_roundtrip env msg

let make_child env flavour seq blob =
  let c = Wire.Dyn.create child in
  Wire.Dyn.set_int c "seq" seq;
  Wire.Dyn.set_payload c "blob" (payload env flavour blob);
  c

let test_nested () =
  let env = make_env () in
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set msg "child"
    (Wire.Dyn.Nested (make_child env `Zero_copy 9L (String.make 520 'n')));
  check_roundtrip env msg

let test_repeated_nested () =
  let env = make_env () in
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set_int msg "id" 1L;
  List.iteri
    (fun i flavour ->
      Wire.Dyn.append msg "children"
        (Wire.Dyn.Nested
           (make_child env flavour (Int64.of_int i)
              (String.make (100 * (i + 1)) (Char.chr (Char.code 'a' + i))))))
    [ `Copied; `Zero_copy; `Literal ];
  check_roundtrip env msg

let test_kitchen_sink () =
  let env = make_env () in
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set_int msg "id" 77L;
  Wire.Dyn.set msg "score" (Wire.Dyn.Float (-0.125));
  Wire.Dyn.set_payload msg "name" (payload env `Copied "a name");
  Wire.Dyn.append msg "tags" (Wire.Dyn.Payload (payload env `Zero_copy (String.make 512 't')));
  Wire.Dyn.append msg "tags" (Wire.Dyn.Payload (payload env `Copied "small"));
  Wire.Dyn.set msg "child" (Wire.Dyn.Nested (make_child env `Copied 1L "inner"));
  Wire.Dyn.append msg "children"
    (Wire.Dyn.Nested (make_child env `Zero_copy 2L (String.make 1024 'q')));
  Wire.Dyn.append msg "nums" (Wire.Dyn.Int 3L);
  check_roundtrip env msg

let test_object_len_matches () =
  let env = make_env () in
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set_payload msg "name" (payload env `Zero_copy (String.make 600 's'));
  Wire.Dyn.set_int msg "id" 5L;
  let plan = Cornflakes.Format_.measure msg in
  Alcotest.(check int) "object_len = plan total"
    plan.Cornflakes.Format_.total_len
    (Cornflakes.Format_.object_len msg);
  Alcotest.(check int) "entries = 1 + zc" 2 (Cornflakes.Format_.num_entries plan);
  let _plan, buf = serialize env msg in
  Alcotest.(check int) "buffer covers object" plan.Cornflakes.Format_.total_len
    (Mem.Pinned.Buf.len buf)

let test_deserialize_takes_references () =
  let env = make_env () in
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set_payload msg "name" (payload env `Copied "refcounted");
  let _plan, buf = serialize env msg in
  Alcotest.(check int) "one ref" 1 (Mem.Pinned.Buf.refcount buf);
  let back = Cornflakes.Format_.deserialize ~cpu:none schema everything buf in
  Alcotest.(check int) "payload holds ref" 2 (Mem.Pinned.Buf.refcount buf);
  Wire.Dyn.release ~cpu:none back;
  Alcotest.(check int) "released" 1 (Mem.Pinned.Buf.refcount buf)

let test_malformed_bitmap () =
  let env = make_env () in
  let buf = Mem.Pinned.Buf.alloc ~cpu:none env.pool ~len:64 in
  Mem.Pinned.Buf.fill ~cpu:none buf (String.make 64 '\xff');
  match Cornflakes.Format_.deserialize ~cpu:none schema everything buf with
  | _ -> Alcotest.fail "expected Malformed"
  | exception Cornflakes.Format_.Malformed _ -> ()

let test_malformed_payload_offset () =
  let env = make_env () in
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set_payload msg "name" (payload env `Copied "x") ;
  let _plan, buf = serialize env msg in
  (* Corrupt the payload length (slot starts after bitmap: 4 + 4 + 8*0,
     name is the only present field -> its slot at offset 8; len at 12). *)
  let v = Mem.Pinned.Buf.view buf in
  Bytes.set v.Mem.View.data (v.Mem.View.off + 12) '\xff';
  Bytes.set v.Mem.View.data (v.Mem.View.off + 13) '\xff';
  match Cornflakes.Format_.deserialize ~cpu:none schema everything buf with
  | _ -> Alcotest.fail "expected Malformed"
  | exception Cornflakes.Format_.Malformed _ -> ()

let test_truncated_buffer () =
  let env = make_env () in
  let buf = Mem.Pinned.Buf.alloc ~cpu:none env.pool ~len:2 in
  Mem.Pinned.Buf.fill ~cpu:none buf "\x01\x00";
  match Cornflakes.Format_.deserialize ~cpu:none schema everything buf with
  | _ -> Alcotest.fail "expected Malformed"
  | exception Cornflakes.Format_.Malformed _ -> ()

(* Random message roundtrip property. *)
let gen_string rng n = String.init n (fun i -> Char.chr ((i * 7 + Sim.Rng.int rng 26) land 0x7f))

let gen_flavour rng =
  match Sim.Rng.int rng 3 with 0 -> `Literal | 1 -> `Copied | _ -> `Zero_copy

let gen_message env rng =
  let msg = Wire.Dyn.create everything in
  if Sim.Rng.bool rng 0.8 then Wire.Dyn.set_int msg "id" (Sim.Rng.next_int64 rng);
  if Sim.Rng.bool rng 0.5 then
    Wire.Dyn.set msg "score" (Wire.Dyn.Float (Sim.Rng.float rng));
  if Sim.Rng.bool rng 0.7 then
    Wire.Dyn.set_payload msg "name"
      (payload env (gen_flavour rng) (gen_string rng (Sim.Rng.int rng 300)));
  if Sim.Rng.bool rng 0.7 then begin
    let n = Sim.Rng.int rng 6 in
    for _ = 1 to n do
      Wire.Dyn.append msg "tags"
        (Wire.Dyn.Payload
           (payload env (gen_flavour rng) (gen_string rng (Sim.Rng.int rng 700))))
    done;
    if n = 0 then Wire.Dyn.set msg "tags" (Wire.Dyn.List [])
  end;
  if Sim.Rng.bool rng 0.5 then
    Wire.Dyn.set msg "child"
      (Wire.Dyn.Nested
         (make_child env (gen_flavour rng) (Sim.Rng.next_int64 rng)
            (gen_string rng (Sim.Rng.int rng 400))));
  if Sim.Rng.bool rng 0.4 then
    for i = 1 to Sim.Rng.int rng 4 do
      Wire.Dyn.append msg "children"
        (Wire.Dyn.Nested
           (make_child env (gen_flavour rng) (Int64.of_int i)
              (gen_string rng (Sim.Rng.int rng 200))))
    done;
  if Sim.Rng.bool rng 0.3 then
    for _ = 1 to Sim.Rng.int rng 5 do
      Wire.Dyn.append msg "nums" (Wire.Dyn.Int (Sim.Rng.next_int64 rng))
    done;
  msg

let qcheck_random_roundtrip =
  QCheck.Test.make ~name:"random message roundtrip" ~count:150 QCheck.small_nat
    (fun seed ->
      let env = make_env () in
      let rng = Sim.Rng.create ~seed:(seed + 1) in
      let msg = gen_message env rng in
      let back = roundtrip env msg in
      Wire.Dyn.equal msg back)

let suite =
  [
    Alcotest.test_case "scalars only" `Quick test_scalars_only;
    Alcotest.test_case "empty message" `Quick test_empty_message;
    Alcotest.test_case "payload flavours" `Quick test_payload_flavours;
    Alcotest.test_case "empty payload" `Quick test_empty_payload;
    Alcotest.test_case "repeated mixed flavours" `Quick test_repeated_mixed_flavours;
    Alcotest.test_case "repeated scalars" `Quick test_repeated_scalars;
    Alcotest.test_case "nested" `Quick test_nested;
    Alcotest.test_case "repeated nested" `Quick test_repeated_nested;
    Alcotest.test_case "kitchen sink" `Quick test_kitchen_sink;
    Alcotest.test_case "object_len consistent" `Quick test_object_len_matches;
    Alcotest.test_case "deserialize takes references" `Quick test_deserialize_takes_references;
    Alcotest.test_case "malformed bitmap" `Quick test_malformed_bitmap;
    Alcotest.test_case "malformed payload offset" `Quick test_malformed_payload_offset;
    Alcotest.test_case "truncated buffer" `Quick test_truncated_buffer;
    QCheck_alcotest.to_alcotest qcheck_random_roundtrip;
  ]

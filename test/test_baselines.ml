(* Roundtrip tests for the baseline serializers (Protobuf, FlatBuffers-like,
   Cap'n Proto-like) and the manual echo paths, end to end over the
   simulated network. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

let schema = Test_format.schema

let everything = Test_format.everything

(* Build a message whose payloads are plain Literal views (how an
   application hands data to a copying library). *)
let sample_message env =
  let space = env.Test_env.space in
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set_int msg "id" 424242L;
  Wire.Dyn.set msg "score" (Wire.Dyn.Float 1.5);
  Wire.Dyn.set_string msg space "name" "baseline test";
  Wire.Dyn.append msg "tags"
    (Wire.Dyn.Payload (Wire.Payload.of_string space (String.make 300 'a')));
  Wire.Dyn.append msg "tags"
    (Wire.Dyn.Payload (Wire.Payload.of_string space "tiny"));
  let child = Wire.Dyn.create Test_format.child in
  Wire.Dyn.set_int child "seq" 7L;
  Wire.Dyn.set_string child space "blob" (String.make 150 'b');
  Wire.Dyn.set msg "child" (Wire.Dyn.Nested child);
  List.iter
    (fun v -> Wire.Dyn.append msg "nums" (Wire.Dyn.Int v))
    [ 1L; 300L; 1_000_000L ];
  msg

let send_catch_check env msg ~send ~deser =
  send (Net.Endpoint.transport env.Test_env.a) ~dst:2 msg;
  let _src, buf = Test_env.catch env in
  let back = deser env buf in
  if not (Wire.Dyn.equal msg back) then
    Alcotest.failf "roundtrip mismatch:@.%a@.vs@.%a" Wire.Dyn.pp msg Wire.Dyn.pp
      back;
  Mem.Pinned.Buf.decr_ref ~cpu:none buf

let test_protobuf_roundtrip () =
  let env = Test_env.make () in
  send_catch_check env (sample_message env)
    ~send:(fun ep -> Baselines.Protobuf.serialize_and_send ep)
    ~deser:(fun env buf ->
      Baselines.Protobuf.deserialize ~cpu:none env.Test_env.b schema everything buf)

let test_protobuf_varint_boundaries () =
  let env = Test_env.make () in
  let msg = Wire.Dyn.create everything in
  List.iter
    (fun v -> Wire.Dyn.append msg "nums" (Wire.Dyn.Int v))
    [ 0L; 127L; 128L; 16383L; 16384L; Int64.max_int; Int64.min_int; -1L ];
  Wire.Dyn.set_int msg "id" 300L;
  send_catch_check env msg
    ~send:(fun ep -> Baselines.Protobuf.serialize_and_send ep)
    ~deser:(fun env buf ->
      Baselines.Protobuf.deserialize ~cpu:none env.Test_env.b schema everything buf)

let test_protobuf_skips_unknown_fields () =
  (* Encode with a schema that has an extra field; decode with one that
     lacks it. *)
  let bigger =
    Schema.Parser.parse
      {|message M { uint64 a = 1; bytes extra = 2; uint64 b = 3; }|}
  in
  let smaller = Schema.Parser.parse {|message M { uint64 a = 1; uint64 b = 3; }|} in
  let env = Test_env.make () in
  let msg = Wire.Dyn.create (Schema.Desc.message bigger "M") in
  Wire.Dyn.set_int msg "a" 1L;
  Wire.Dyn.set_string msg env.Test_env.space "extra" "ignore me";
  Wire.Dyn.set_int msg "b" 2L;
  Baselines.Protobuf.serialize_and_send (Net.Endpoint.transport env.Test_env.a) ~dst:2 msg;
  let _src, buf = Test_env.catch env in
  let back =
    Baselines.Protobuf.deserialize ~cpu:none env.Test_env.b smaller
      (Schema.Desc.message smaller "M") buf
  in
  Alcotest.(check (option int64)) "a" (Some 1L) (Wire.Dyn.get_int back "a");
  Alcotest.(check (option int64)) "b" (Some 2L) (Wire.Dyn.get_int back "b");
  Mem.Pinned.Buf.decr_ref ~cpu:none buf

let test_protobuf_rejects_garbage () =
  let env = Test_env.make () in
  Net.Endpoint.send_string env.Test_env.a ~dst:2 "\xff\xff\xff\xff\xff";
  let _src, buf = Test_env.catch env in
  (match Baselines.Protobuf.deserialize ~cpu:none env.Test_env.b schema everything buf with
  | _ -> Alcotest.fail "expected Decode_error"
  | exception Baselines.Protobuf.Decode_error _ -> ());
  Mem.Pinned.Buf.decr_ref ~cpu:none buf

let test_flatbuf_roundtrip () =
  let env = Test_env.make () in
  send_catch_check env (sample_message env)
    ~send:(fun ep -> Baselines.Flatbuf.serialize_and_send ep)
    ~deser:(fun _env buf -> Baselines.Flatbuf.deserialize ~cpu:none schema everything buf)

let test_flatbuf_empty_message () =
  let env = Test_env.make () in
  send_catch_check env
    (Wire.Dyn.create everything)
    ~send:(fun ep -> Baselines.Flatbuf.serialize_and_send ep)
    ~deser:(fun _env buf -> Baselines.Flatbuf.deserialize ~cpu:none schema everything buf)

let test_flatbuf_reads_are_zero_copy () =
  let env = Test_env.make () in
  let msg = sample_message env in
  Baselines.Flatbuf.serialize_and_send (Net.Endpoint.transport env.Test_env.a) ~dst:2 msg;
  let _src, buf = Test_env.catch env in
  let back = Baselines.Flatbuf.deserialize ~cpu:none schema everything buf in
  (match Wire.Dyn.get_payload back "name" with
  | Some (Wire.Payload.Zero_copy sub) ->
      (* The payload window lives inside the receive buffer. *)
      Alcotest.(check bool) "window into rx buffer" true
        (Mem.Pinned.Buf.addr sub >= Mem.Pinned.Buf.addr buf
        && Mem.Pinned.Buf.addr sub
           < Mem.Pinned.Buf.addr buf + Mem.Pinned.Buf.len buf)
  | _ -> Alcotest.fail "expected zero-copy payload");
  Wire.Dyn.release ~cpu:none back;
  Mem.Pinned.Buf.decr_ref ~cpu:none buf

let test_capnp_roundtrip () =
  let env = Test_env.make () in
  send_catch_check env (sample_message env)
    ~send:(fun ep -> Baselines.Capnp.serialize_and_send ep)
    ~deser:(fun _env buf -> Baselines.Capnp.deserialize ~cpu:none schema everything buf)

let test_capnp_multisegment () =
  let env = Test_env.make () in
  let msg = Wire.Dyn.create everything in
  (* Two blobs larger than a segment force dedicated segments. *)
  Wire.Dyn.append msg "tags"
    (Wire.Dyn.Payload
       (Wire.Payload.of_string env.Test_env.space (String.make 3000 'x')));
  Wire.Dyn.append msg "tags"
    (Wire.Dyn.Payload
       (Wire.Payload.of_string env.Test_env.space (String.make 2500 'y')));
  let segs = Baselines.Capnp.build ~cpu:none env.Test_env.a msg in
  Alcotest.(check bool) "multiple segments" true (List.length segs >= 3);
  send_catch_check env msg
    ~send:(fun ep -> Baselines.Capnp.serialize_and_send ep)
    ~deser:(fun _env buf -> Baselines.Capnp.deserialize ~cpu:none schema everything buf)

let test_capnp_rejects_garbage () =
  let env = Test_env.make () in
  Net.Endpoint.send_string env.Test_env.a ~dst:2 "\x10\x00\x00\x00bad";
  let _src, buf = Test_env.catch env in
  (match Baselines.Capnp.deserialize ~cpu:none schema everything buf with
  | _ -> Alcotest.fail "expected Decode_error"
  | exception Baselines.Capnp.Decode_error _ -> ());
  Mem.Pinned.Buf.decr_ref ~cpu:none buf

let manual_views env =
  let pool = Test_env.data_pool env in
  let f1 = Test_env.pinned_of_string pool (String.make 2048 'p') in
  let f2 = Test_env.pinned_of_string pool (String.make 2048 'q') in
  [ Mem.Pinned.Buf.view f1; Mem.Pinned.Buf.view f2 ]

let check_manual_roundtrip env views =
  let _src, buf = Test_env.catch env in
  let fields = Baselines.Manual.parse ~cpu:none (Mem.Pinned.Buf.view buf) in
  Alcotest.(check int) "field count" (List.length views) (List.length fields);
  List.iter2
    (fun want got ->
      Alcotest.(check string) "contents" (Mem.View.to_string want)
        (Mem.View.to_string got))
    views fields;
  Mem.Pinned.Buf.decr_ref ~cpu:none buf

let test_manual_one_copy () =
  let env = Test_env.make () in
  let views = manual_views env in
  Baselines.Manual.send_one_copy (Net.Endpoint.transport env.Test_env.a) ~dst:2 views;
  check_manual_roundtrip env views

let test_manual_two_copy () =
  let env = Test_env.make () in
  let views = manual_views env in
  Baselines.Manual.send_two_copy (Net.Endpoint.transport env.Test_env.a) ~dst:2 views;
  check_manual_roundtrip env views

let test_manual_zero_copy () =
  let env = Test_env.make () in
  let views = manual_views env in
  Baselines.Manual.send_zero_copy ~safety:`Safe (Net.Endpoint.transport env.Test_env.a) ~dst:2 views;
  check_manual_roundtrip env views

let test_manual_zero_copy_rejects_unpinned () =
  let env = Test_env.make () in
  let v = Mem.View.of_string env.Test_env.space "not pinned" in
  Alcotest.check_raises "unpinned"
    (Invalid_argument "Manual.send_zero_copy: field is not in pinned memory")
    (fun () ->
      Baselines.Manual.send_zero_copy ~safety:`Safe (Net.Endpoint.transport env.Test_env.a) ~dst:2 [ v ])

let test_manual_forward () =
  let env = Test_env.make () in
  Net.Endpoint.send_string env.Test_env.a ~dst:2 "fwd me";
  let _src, buf = Test_env.catch env in
  (* Forward it back from b to a. *)
  let got = ref None in
  Net.Endpoint.set_rx env.Test_env.a (fun ~src:_ b ->
      got := Some (Mem.View.to_string (Mem.Pinned.Buf.view b));
      Mem.Pinned.Buf.decr_ref ~cpu:none b);
  Baselines.Manual.forward (Net.Endpoint.transport env.Test_env.b) ~dst:1 buf;
  Sim.Engine.run_all env.Test_env.engine;
  Alcotest.(check (option string)) "echoed" (Some "fwd me") !got

(* Random cross-library property: all three libraries agree with the
   original message. *)
let qcheck_all_libraries_roundtrip =
  QCheck.Test.make ~name:"baseline serializers roundtrip" ~count:60
    QCheck.small_nat
    (fun seed ->
      let rng = Sim.Rng.create ~seed:(seed + 100) in
      let env = Test_env.make () in
      let fmt_env =
        {
          Test_format.space = env.Test_env.space;
          pool = Test_env.data_pool env;
          arena = Mem.Arena.create env.Test_env.space ~capacity:(1 lsl 16);
        }
      in
      let msg = Test_format.gen_message fmt_env rng in
      (* Protobuf cannot represent present-but-empty repeated payload
         fields; normalise those away. *)
      (match Wire.Dyn.get msg "tags" with
      | Some (Wire.Dyn.List []) -> Wire.Dyn.clear_field msg "tags"
      | _ -> ());
      (match Wire.Dyn.get msg "children" with
      | Some (Wire.Dyn.List []) -> Wire.Dyn.clear_field msg "children"
      | _ -> ());
      (match Wire.Dyn.get msg "nums" with
      | Some (Wire.Dyn.List []) -> Wire.Dyn.clear_field msg "nums"
      | _ -> ());
      let ok = ref true in
      let try_lib send deser =
        send (Net.Endpoint.transport env.Test_env.a) msg;
        let _src, buf = Test_env.catch env in
        if not (Wire.Dyn.equal msg (deser buf)) then ok := false;
        Mem.Pinned.Buf.decr_ref ~cpu:none buf
      in
      try_lib
        (fun ep msg -> Baselines.Protobuf.serialize_and_send ep ~dst:2 msg)
        (fun buf ->
          Baselines.Protobuf.deserialize ~cpu:none env.Test_env.b Test_format.schema
            Test_format.everything buf);
      try_lib
        (fun ep msg -> Baselines.Flatbuf.serialize_and_send ep ~dst:2 msg)
        (fun buf ->
          Baselines.Flatbuf.deserialize ~cpu:none Test_format.schema
            Test_format.everything buf);
      try_lib
        (fun ep msg -> Baselines.Capnp.serialize_and_send ep ~dst:2 msg)
        (fun buf ->
          Baselines.Capnp.deserialize ~cpu:none Test_format.schema
            Test_format.everything buf);
      !ok)

let suite =
  [
    Alcotest.test_case "protobuf roundtrip" `Quick test_protobuf_roundtrip;
    Alcotest.test_case "protobuf varint boundaries" `Quick
      test_protobuf_varint_boundaries;
    Alcotest.test_case "protobuf skips unknown fields" `Quick
      test_protobuf_skips_unknown_fields;
    Alcotest.test_case "protobuf rejects garbage" `Quick
      test_protobuf_rejects_garbage;
    Alcotest.test_case "flatbuf roundtrip" `Quick test_flatbuf_roundtrip;
    Alcotest.test_case "flatbuf empty message" `Quick test_flatbuf_empty_message;
    Alcotest.test_case "flatbuf zero-copy reads" `Quick
      test_flatbuf_reads_are_zero_copy;
    Alcotest.test_case "capnp roundtrip" `Quick test_capnp_roundtrip;
    Alcotest.test_case "capnp multisegment" `Quick test_capnp_multisegment;
    Alcotest.test_case "capnp rejects garbage" `Quick test_capnp_rejects_garbage;
    Alcotest.test_case "manual one-copy" `Quick test_manual_one_copy;
    Alcotest.test_case "manual two-copy" `Quick test_manual_two_copy;
    Alcotest.test_case "manual zero-copy" `Quick test_manual_zero_copy;
    Alcotest.test_case "manual zero-copy rejects unpinned" `Quick
      test_manual_zero_copy_rejects_unpinned;
    Alcotest.test_case "manual forward" `Quick test_manual_forward;
    QCheck_alcotest.to_alcotest qcheck_all_libraries_roundtrip;
  ]

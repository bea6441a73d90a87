(* Tests for the CornflakesObj iterator API (Listing 1) and multi-frame
   segmentation (the §3.2.3 extension). *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

let schema = Test_format.schema

let everything = Test_format.everything

type env = {
  engine : Sim.Engine.t;
  fabric : Net.Fabric.t;
  space : Mem.Addr_space.t;
  registry : Mem.Registry.t;
  a : Net.Endpoint.t;
  b : Net.Endpoint.t;
  pool : Mem.Pinned.Pool.t;
}

let make () =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let a = Net.Endpoint.create ~cpu:none fabric registry ~id:1 in
  let b = Net.Endpoint.create ~cpu:none fabric registry ~id:2 in
  let pool =
    Mem.Pinned.Pool.create space ~name:"seg"
      ~classes:[ (1024, 64); (16384, 64); (65536, 32); (131072, 8) ]
  in
  Mem.Registry.register registry pool;
  { engine; fabric; space; registry; a; b; pool }

let big_message env ~zc_sizes ~copied =
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set_int msg "id" 9L;
  Wire.Dyn.set_payload msg "name"
    (Wire.Payload.Literal (Mem.View.of_string env.space copied));
  List.iteri
    (fun i n ->
      let buf = Mem.Pinned.Buf.alloc ~cpu:none env.pool ~len:n in
      Mem.Pinned.Buf.fill ~cpu:none buf
        (String.init n (fun j -> Char.chr ((i + j) land 0x7f)));
      (* The send consumes the message's reference; the test keeps one so
         it can compare contents afterwards. *)
      Mem.Pinned.Buf.incr_ref ~cpu:none buf;
      Wire.Dyn.append msg "tags" (Wire.Dyn.Payload (Wire.Payload.Zero_copy buf)))
    zc_sizes;
  msg

(* --- Obj_api ----------------------------------------------------------- *)

let test_obj_api_lengths () =
  let env = make () in
  let msg = big_message env ~zc_sizes:[ 1000; 2000 ] ~copied:"abc" in
  let plan = Cornflakes.Format_.measure msg in
  Alcotest.(check int) "object_len" plan.Cornflakes.Format_.total_len
    (Cornflakes.Obj_api.object_len msg);
  Alcotest.(check int) "copy bytes"
    (plan.Cornflakes.Format_.header_len + plan.Cornflakes.Format_.stream_len)
    (Cornflakes.Obj_api.num_copy_bytes msg);
  Alcotest.(check int) "zc entries" 2
    (Cornflakes.Obj_api.num_zero_copy_entries msg)

let test_obj_api_ranged_zero_copy_iteration () =
  let env = make () in
  let msg = big_message env ~zc_sizes:[ 1000; 2000 ] ~copied:"abc" in
  let copy_len = Cornflakes.Obj_api.num_copy_bytes msg in
  (* A range straddling the middle of the first zc entry and the start of
     the second. *)
  let start = copy_len + 500 and stop = copy_len + 1300 in
  let slices = ref [] in
  Cornflakes.Obj_api.iterate_over_zero_copy_entries msg ~start ~stop
    (fun slice -> slices := Mem.Pinned.Buf.len slice :: !slices);
  Alcotest.(check (list int)) "slice lengths" [ 500; 300 ] (List.rev !slices);
  (* Full range covers everything exactly once. *)
  let total = ref 0 in
  Cornflakes.Obj_api.iterate_over_zero_copy_entries msg ~start:0 ~stop:max_int
    (fun slice -> total := !total + Mem.Pinned.Buf.len slice);
  Alcotest.(check int) "full coverage" 3000 !total

let test_obj_api_copy_range () =
  let env = make () in
  let msg = big_message env ~zc_sizes:[ 600 ] ~copied:"0123456789" in
  let copy_len = Cornflakes.Obj_api.num_copy_bytes msg in
  let scratch_bytes = Bytes.create copy_len in
  let scratch =
    Mem.View.make
      ~addr:(Mem.Addr_space.reserve env.space ~bytes:copy_len)
      ~data:scratch_bytes ~off:0 ~len:copy_len
  in
  let got = ref None in
  Cornflakes.Obj_api.iterate_over_copy_entries ~cpu:none msg ~scratch ~start:0
    ~stop:copy_len (fun v -> got := Some (Mem.View.to_string v));
  (match !got with
  | Some s ->
      Alcotest.(check int) "whole copied region" copy_len (String.length s)
  | None -> Alcotest.fail "no copy entry");
  (* A range entirely inside the zc region yields no copy entries. *)
  let no_copy = ref true in
  Cornflakes.Obj_api.iterate_over_copy_entries ~cpu:none msg ~scratch ~start:copy_len
    ~stop:(copy_len + 100) (fun _ -> no_copy := false);
  Alcotest.(check bool) "no copy entries in zc range" true !no_copy

(* --- Segmentation ------------------------------------------------------ *)

let segmented_roundtrip ?(loss_check = false) env msg =
  ignore loss_check;
  let segmenter = Cornflakes.Segment.Segmenter.create env.a in
  let reassembler = Cornflakes.Segment.Reassembler.create env.registry in
  let delivered = ref [] in
  Net.Endpoint.set_rx env.b (fun ~src buf ->
      Cornflakes.Segment.Reassembler.on_packet ~cpu:none reassembler ~src buf
        ~deliver:(fun ~src:_ obj -> delivered := obj :: !delivered));
  Cornflakes.Segment.Segmenter.send segmenter ~dst:2 msg;
  Sim.Engine.run_all env.engine;
  !delivered

let test_single_frame_object () =
  let env = make () in
  let msg = big_message env ~zc_sizes:[ 700 ] ~copied:"small" in
  match segmented_roundtrip env msg with
  | [ obj ] ->
      let back =
        Cornflakes.Format_.deserialize ~cpu:none schema everything obj
      in
      if not (Wire.Dyn.equal msg back) then Alcotest.fail "roundtrip mismatch";
      Wire.Dyn.release ~cpu:none back;
      Mem.Pinned.Buf.decr_ref ~cpu:none obj
  | other -> Alcotest.failf "expected 1 object, got %d" (List.length other)

let test_multi_frame_object () =
  let env = make () in
  (* ~120 KB of zero-copy payload: ~14 frames. *)
  let msg =
    big_message env
      ~zc_sizes:[ 60_000; 40_000; 20_000 ]
      ~copied:(String.make 500 'c')
  in
  Alcotest.(check bool) "too large for send_object" true
    (Cornflakes.Format_.object_len msg > Net.Packet.max_payload);
  match segmented_roundtrip env msg with
  | [ obj ] ->
      let back =
        Cornflakes.Format_.deserialize ~cpu:none schema everything obj
      in
      if not (Wire.Dyn.equal msg back) then Alcotest.fail "roundtrip mismatch";
      Wire.Dyn.release ~cpu:none back;
      Mem.Pinned.Buf.decr_ref ~cpu:none obj
  | other -> Alcotest.failf "expected 1 object, got %d" (List.length other)

let test_interleaved_messages_same_sender () =
  let env = make () in
  let segmenter = Cornflakes.Segment.Segmenter.create env.a in
  let reassembler = Cornflakes.Segment.Reassembler.create env.registry in
  let delivered = ref 0 in
  Net.Endpoint.set_rx env.b (fun ~src buf ->
      Cornflakes.Segment.Reassembler.on_packet ~cpu:none reassembler ~src buf
        ~deliver:(fun ~src:_ obj ->
          incr delivered;
          Mem.Pinned.Buf.decr_ref ~cpu:none obj));
  for _ = 1 to 3 do
    let msg = big_message env ~zc_sizes:[ 30_000 ] ~copied:"x" in
    Cornflakes.Segment.Segmenter.send segmenter ~dst:2 msg
  done;
  Sim.Engine.run_all env.engine;
  Alcotest.(check int) "three objects" 3 !delivered;
  Alcotest.(check int) "nothing pending" 0
    (Cornflakes.Segment.Reassembler.pending reassembler)

let test_zc_refs_released_after_all_frames () =
  let env = make () in
  let buf = Mem.Pinned.Buf.alloc ~cpu:none env.pool ~len:50_000 in
  Mem.Pinned.Buf.fill ~cpu:none buf (String.make 50_000 'z');
  Mem.Pinned.Buf.incr_ref ~cpu:none buf;
  (* our handle survives the send *)
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set_payload msg "name" (Wire.Payload.Zero_copy buf);
  let segmenter = Cornflakes.Segment.Segmenter.create env.a in
  Cornflakes.Segment.Segmenter.send segmenter ~dst:2 msg;
  Alcotest.(check bool) "slices hold refs in flight" true
    (Mem.Pinned.Buf.refcount buf >= 2);
  Sim.Engine.run_all env.engine;
  Alcotest.(check int) "only our handle remains" 1 (Mem.Pinned.Buf.refcount buf)

let test_oversized_rejected () =
  let env = make () in
  let pool_big =
    Mem.Pinned.Pool.create env.space ~name:"huge"
      ~classes:[ (1 lsl 22, 2) ]
  in
  Mem.Registry.register env.registry pool_big;
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool_big ~len:(Cornflakes.Segment.max_object + 1) in
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set_payload msg "name" (Wire.Payload.Zero_copy buf);
  let segmenter = Cornflakes.Segment.Segmenter.create env.a in
  match Cornflakes.Segment.Segmenter.send segmenter ~dst:2 msg with
  | () -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_reassembler_drops_garbage () =
  let env = make () in
  let reassembler = Cornflakes.Segment.Reassembler.create env.registry in
  let delivered = ref 0 in
  Net.Endpoint.set_rx env.b (fun ~src buf ->
      Cornflakes.Segment.Reassembler.on_packet ~cpu:none reassembler ~src buf
        ~deliver:(fun ~src:_ obj ->
          incr delivered;
          Mem.Pinned.Buf.decr_ref ~cpu:none obj));
  Net.Endpoint.send_string env.a ~dst:2 "short";
  Net.Endpoint.send_string env.a ~dst:2
    "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff-junk";
  Sim.Engine.run_all env.engine;
  Alcotest.(check int) "nothing delivered" 0 !delivered

let suite =
  [
    Alcotest.test_case "obj_api lengths" `Quick test_obj_api_lengths;
    Alcotest.test_case "obj_api ranged zc iteration" `Quick
      test_obj_api_ranged_zero_copy_iteration;
    Alcotest.test_case "obj_api copy range" `Quick test_obj_api_copy_range;
    Alcotest.test_case "single-frame object" `Quick test_single_frame_object;
    Alcotest.test_case "multi-frame object" `Quick test_multi_frame_object;
    Alcotest.test_case "interleaved messages" `Quick
      test_interleaved_messages_same_sender;
    Alcotest.test_case "zc refs across frames" `Quick
      test_zc_refs_released_after_all_frames;
    Alcotest.test_case "oversized rejected" `Quick test_oversized_rejected;
    Alcotest.test_case "reassembler drops garbage" `Quick
      test_reassembler_drops_garbage;
  ]

let test_reassembler_expires_stalled_objects () =
  let env = make () in
  let segmenter = Cornflakes.Segment.Segmenter.create env.a in
  let reassembler = Cornflakes.Segment.Reassembler.create env.registry in
  let delivered = ref 0 in
  Net.Endpoint.set_rx env.b (fun ~src buf ->
      (* Stamp the reassembler with the engine clock, like a real event
         loop would. *)
      let _ =
        Cornflakes.Segment.Reassembler.expire reassembler
          ~now:(Sim.Engine.now env.engine) ~timeout_ns:max_int
      in
      Cornflakes.Segment.Reassembler.on_packet ~cpu:none reassembler ~src buf
        ~deliver:(fun ~src:_ obj ->
          incr delivered;
          Mem.Pinned.Buf.decr_ref ~cpu:none obj));
  (* Lose ~half the fragments of a large object: it can never complete. *)
  Net.Fabric.set_loss_rate env.fabric 0.5;
  let msg = big_message env ~zc_sizes:[ 80_000 ] ~copied:"x" in
  Cornflakes.Segment.Segmenter.send segmenter ~dst:2 msg;
  Sim.Engine.run_all env.engine;
  Net.Fabric.set_loss_rate env.fabric 0.0;
  Alcotest.(check int) "never delivered" 0 !delivered;
  Alcotest.(check int) "one stalled object" 1
    (Cornflakes.Segment.Reassembler.pending reassembler);
  (* An expiry pass with a finite timeout reclaims the buffer. *)
  let evicted =
    Cornflakes.Segment.Reassembler.expire reassembler
      ~now:(Sim.Engine.now env.engine + 10_000_000)
      ~timeout_ns:1_000_000
  in
  Alcotest.(check int) "evicted" 1 evicted;
  Alcotest.(check int) "nothing pending" 0
    (Cornflakes.Segment.Reassembler.pending reassembler)

let suite = suite @ [
  Alcotest.test_case "reassembler expires stalls" `Quick
    test_reassembler_expires_stalled_objects;
]

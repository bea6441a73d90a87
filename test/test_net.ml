(* Tests for the NIC device and UDP endpoint: delivery, completions,
   reference release, gather limits, ring backpressure, loss. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

let test_send_string_delivery () =
  let env = Test_env.make () in
  Net.Endpoint.send_string env.Test_env.a ~dst:2 "ping";
  let src, buf = Test_env.catch env in
  Alcotest.(check int) "src" 1 src;
  Alcotest.(check string) "payload" "ping"
    (Mem.View.to_string (Mem.Pinned.Buf.view buf));
  Mem.Pinned.Buf.decr_ref ~cpu:none buf

let test_wire_delay () =
  let env = Test_env.make () in
  let t_sent = Sim.Engine.now env.Test_env.engine in
  Net.Endpoint.send_string env.Test_env.a ~dst:2 "x";
  let arrival = ref (-1) in
  Net.Endpoint.set_rx env.Test_env.b (fun ~src:_ buf ->
      arrival := Sim.Engine.now env.Test_env.engine;
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  Sim.Engine.run_all env.Test_env.engine;
  let delay = !arrival - t_sent in
  (* one-way fabric delay + NIC serialization occupancy *)
  Alcotest.(check bool) "delay sane" true (delay >= 850 && delay < 2_000)

let test_completion_releases_segments () =
  let env = Test_env.make () in
  let pool = Test_env.data_pool env in
  let value = Test_env.pinned_of_string pool (String.make 1024 'v') in
  Mem.Pinned.Buf.incr_ref ~cpu:none value (* our handle + the stack's *);
  let staging =
    Net.Endpoint.alloc_tx env.Test_env.a ~len:Net.Packet.header_len
  in
  Net.Endpoint.send_inline env.Test_env.a ~dst:2
    ~head:staging ~zc:[| value |] ~zc_n:1;
  Alcotest.(check int) "held during flight" 2 (Mem.Pinned.Buf.refcount value);
  let _src, buf = Test_env.catch env in
  Mem.Pinned.Buf.decr_ref ~cpu:none buf;
  Alcotest.(check int) "released after completion" 1
    (Mem.Pinned.Buf.refcount value);
  Mem.Pinned.Buf.decr_ref ~cpu:none value

let test_gathered_bytes_order () =
  let env = Test_env.make () in
  let pool = Test_env.data_pool env in
  let f1 = Test_env.pinned_of_string pool (String.make 600 'a') in
  let f2 = Test_env.pinned_of_string pool (String.make 700 'b') in
  Baselines.Manual.send_zero_copy ~safety:`Safe (Net.Endpoint.transport env.Test_env.a) ~dst:2
    [ Mem.Pinned.Buf.view f1; Mem.Pinned.Buf.view f2 ];
  let _src, buf = Test_env.catch env in
  let fields = Baselines.Manual.parse ~cpu:none (Mem.Pinned.Buf.view buf) in
  (match fields with
  | [ a; b ] ->
      Alcotest.(check string) "field 1" (String.make 600 'a')
        (Mem.View.to_string a);
      Alcotest.(check string) "field 2" (String.make 700 'b')
        (Mem.View.to_string b)
  | _ -> Alcotest.fail "expected two fields");
  Mem.Pinned.Buf.decr_ref ~cpu:none buf

let test_sge_limit_enforced () =
  let env = Test_env.make ~nic_model:Nic.Model.intel_e810 () in
  let pool = Test_env.data_pool env in
  (* e810: 8 SGEs. 1 staging + 8 fields = 9 -> must raise. *)
  let fields =
    List.init 8 (fun _ -> Test_env.pinned_of_string pool (String.make 64 'x'))
  in
  Alcotest.check_raises "too many segments"
    (Nic.Device.Too_many_segments { requested = 9; limit = 8 })
    (fun () ->
      Baselines.Manual.send_zero_copy ~safety:`Raw (Net.Endpoint.transport env.Test_env.a) ~dst:2
        (List.map Mem.Pinned.Buf.view fields))

let test_tx_counters () =
  let env = Test_env.make () in
  Net.Endpoint.send_string env.Test_env.a ~dst:2 "hello";
  Sim.Engine.run_all env.Test_env.engine;
  Alcotest.(check int) "tx packets" 1 (Net.Endpoint.tx_packets env.Test_env.a);
  Alcotest.(check int) "tx bytes = hdr + payload" (Net.Packet.header_len + 5)
    (Net.Endpoint.tx_bytes env.Test_env.a);
  Alcotest.(check int) "rx packets" 1 (Net.Endpoint.rx_packets env.Test_env.b);
  Alcotest.(check int) "rx bytes payload only" 5
    (Net.Endpoint.rx_bytes env.Test_env.b)

let test_fabric_loss () =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create ~loss_rate:1.0 engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let a = Net.Endpoint.create ~cpu:none fabric registry ~id:1 in
  let b = Net.Endpoint.create ~cpu:none fabric registry ~id:2 in
  let got = ref 0 in
  Net.Endpoint.set_rx b (fun ~src:_ buf ->
      incr got;
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  Net.Endpoint.send_string a ~dst:2 "lost";
  Sim.Engine.run_all engine;
  Alcotest.(check int) "dropped" 0 !got;
  Alcotest.(check int) "fabric counted drop" 1 (Net.Fabric.dropped fabric)

let test_unknown_destination_dropped () =
  let env = Test_env.make () in
  Net.Endpoint.send_string env.Test_env.a ~dst:99 "nowhere";
  Sim.Engine.run_all env.Test_env.engine;
  Alcotest.(check int) "drop counted" 1 (Net.Fabric.dropped env.Test_env.fabric)

let test_staging_recycled_after_completion () =
  let env = Test_env.make () in
  let before =
    Mem.Pinned.Pool.live
      (List.nth (Mem.Registry.pools env.Test_env.registry) 0)
  in
  ignore before;
  Net.Endpoint.send_string env.Test_env.a ~dst:2 "recycle";
  Sim.Engine.run_all env.Test_env.engine;
  (* All TX staging returned; only the RX buffer at b is still held. *)
  let live_total =
    List.fold_left
      (fun acc p -> acc + Mem.Pinned.Pool.live p)
      0
      (Mem.Registry.pools env.Test_env.registry)
  in
  Alcotest.(check int) "only rx buffer live" 1 live_total

let test_nic_line_rate_backpressure () =
  (* Posting many jumbo packets back to back: completions are spaced by at
     least the wire time of each frame. *)
  let env = Test_env.make () in
  let n = 16 in
  let payload = String.make 8000 'j' in
  for _ = 1 to n do
    Net.Endpoint.send_string env.Test_env.a ~dst:2 payload
  done;
  Sim.Engine.run_all env.Test_env.engine;
  let elapsed = Sim.Engine.now env.Test_env.engine in
  (* 16 * ~8042B at 100 Gbps is ~10.3 us of wire time. *)
  Alcotest.(check bool) "at least wire time" true (elapsed >= 10_000);
  Alcotest.(check int) "all delivered" n (Net.Endpoint.rx_packets env.Test_env.b)

let test_one_doorbell_per_send () =
  let env = Test_env.make () in
  for _ = 1 to 8 do
    Net.Endpoint.send_string env.Test_env.a ~dst:2 "single"
  done;
  Sim.Engine.run_all env.Test_env.engine;
  Alcotest.(check int) "eight doorbells for eight sends" 8
    (Net.Endpoint.doorbells env.Test_env.a);
  Alcotest.(check int) "all delivered" 8
    (Net.Endpoint.rx_packets env.Test_env.b)

(* The stack's reference on a zero-copy segment lives exactly as long as
   the descriptor: held while it sits in the TX ring, dropped by its CQE. *)
let test_each_cqe_releases_segments () =
  let env = Test_env.make () in
  let pool = Test_env.data_pool env in
  let v1 = Test_env.pinned_of_string pool (String.make 512 'p') in
  let v2 = Test_env.pinned_of_string pool (String.make 512 'q') in
  Mem.Pinned.Buf.incr_ref ~cpu:none v1 (* our handle + the stack's *);
  Mem.Pinned.Buf.incr_ref ~cpu:none v2;
  let s1 = Net.Endpoint.alloc_tx env.Test_env.a ~len:Net.Packet.header_len in
  let s2 = Net.Endpoint.alloc_tx env.Test_env.a ~len:Net.Packet.header_len in
  Net.Endpoint.send_inline env.Test_env.a ~dst:2 ~head:s1 ~zc:[| v1 |] ~zc_n:1;
  Net.Endpoint.send_inline env.Test_env.a ~dst:2 ~head:s2 ~zc:[| v2 |] ~zc_n:1;
  Alcotest.(check int) "held while in the TX ring" 2
    (Mem.Pinned.Buf.refcount v1);
  Alcotest.(check int) "both descriptors in flight" 2
    (Nic.Device.in_flight (Net.Endpoint.nic env.Test_env.a));
  Sim.Engine.run_all env.Test_env.engine;
  Alcotest.(check int) "one doorbell per send" 2
    (Net.Endpoint.doorbells env.Test_env.a);
  Alcotest.(check int) "v1 released after its completion" 1
    (Mem.Pinned.Buf.refcount v1);
  Alcotest.(check int) "v2 released after its completion" 1
    (Mem.Pinned.Buf.refcount v2);
  Alcotest.(check int) "both delivered" 2
    (Net.Endpoint.rx_packets env.Test_env.b);
  Mem.Pinned.Buf.decr_ref ~cpu:none v1;
  Mem.Pinned.Buf.decr_ref ~cpu:none v2

(* A pool backs a slot only once it is handed out: creating an endpoint
   reserves its pools' simulated ranges (nine TX classes x 2,048 slots plus
   4,096 x 16 KB RX, about 134 MB) without growing the host heap by more
   than 2^20 words, and each 64 KB chunk of the RX class (four 16 KB slots)
   appears with the first slot handed out in it. *)
let test_backing_follows_use () =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  (* [Gc.stat], not [Gc.quick_stat]: only the full count sees each large
     block the moment it is allocated. *)
  let heap_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.heap_words
  in
  let before = heap_words () in
  let ep = Net.Endpoint.create ~cpu:none fabric registry ~id:1 in
  let grown = heap_words () - before in
  if grown >= 1 lsl 20 then
    Alcotest.failf "Endpoint.create grew the heap by %d words" grown;
  let rx =
    List.find
      (fun p -> Mem.Pinned.Pool.name p = "ep1-rx")
      (Mem.Registry.pools registry)
  in
  (* A 64 KB chunk is 8,192 words plus its header and the allocator's. *)
  let k = 9 in
  let chunks = (k + 3) / 4 in
  let before = heap_words () in
  let bufs =
    List.init k (fun _ -> Mem.Pinned.Buf.alloc ~cpu:none rx ~len:16384)
  in
  let grown = heap_words () - before in
  if grown < chunks * 8192 || grown >= (chunks + 1) * 8192 then
    Alcotest.failf "%d RX slots grew the heap by %d words, want about %d" k
      grown (chunks * 8192);
  List.iter (Mem.Pinned.Buf.decr_ref ~cpu:none) bufs;
  ignore (Sys.opaque_identity ep)

let suite =
  [
    Alcotest.test_case "send/recv string" `Quick test_send_string_delivery;
    Alcotest.test_case "wire delay" `Quick test_wire_delay;
    Alcotest.test_case "completion releases refs" `Quick
      test_completion_releases_segments;
    Alcotest.test_case "gather order" `Quick test_gathered_bytes_order;
    Alcotest.test_case "sge limit enforced" `Quick test_sge_limit_enforced;
    Alcotest.test_case "tx/rx counters" `Quick test_tx_counters;
    Alcotest.test_case "fabric loss" `Quick test_fabric_loss;
    Alcotest.test_case "unknown destination" `Quick test_unknown_destination_dropped;
    Alcotest.test_case "staging recycled" `Quick test_staging_recycled_after_completion;
    Alcotest.test_case "line-rate pacing" `Quick test_nic_line_rate_backpressure;
    Alcotest.test_case "one doorbell per send" `Quick
      test_one_doorbell_per_send;
    Alcotest.test_case "each CQE releases its refs" `Quick
      test_each_cqe_releases_segments;
    Alcotest.test_case "backing follows use" `Quick test_backing_follows_use;
  ]

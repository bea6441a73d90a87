(* End-to-end tests of the applications over the full stack: KV server with
   every backend, echo server, the load drivers, and the server harness. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

let small_ycsb () = Workload.Ycsb.make ~n_keys:512 ~entries:2 ~entry_size:600 ()

let run_kv backend ~requests =
  let rig = Apps.Rig.create ~n_clients:4 () in
  let app = Apps.Kv_app.install rig ~backend ~workload:(small_ycsb ()) in
  let send ep ~dst ~id = Apps.Kv_app.send_next app ep ~dst ~id in
  let parse_id = Some (fun buf -> Apps.Kv_app.parse_id app buf) in
  let r =
    Loadgen.Driver.closed_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
      ~server:Apps.Rig.server_id ~outstanding:2
      ~duration_ns:(requests * 2_000)
      ~warmup_ns:0 ~rng:rig.Apps.Rig.rng ~send ~parse_id
  in
  (rig, r)

let test_kv_all_backends_serve () =
  List.iter
    (fun backend ->
      let rig, r = run_kv backend ~requests:500 in
      Alcotest.(check bool)
        (backend.Apps.Backend.name ^ " completed requests")
        true
        (r.Loadgen.Driver.completed > 100);
      Alcotest.(check int)
        (backend.Apps.Backend.name ^ " no drops")
        0
        (Loadgen.Server.dropped rig.Apps.Rig.server))
    Apps.Backend.all

let test_kv_responses_carry_values () =
  (* Direct check: one get returns the stored bytes through the whole
     stack, for each backend. *)
  List.iter
    (fun backend ->
      let rig = Apps.Rig.create ~n_clients:1 () in
      let wl = small_ycsb () in
      let app = Apps.Kv_app.install rig ~backend ~workload:wl in
      let client = List.hd rig.Apps.Rig.clients in
      let got = ref None in
      Net.Transport.set_rx client (fun ~src:_ buf ->
          let msg = backend.Apps.Backend.recv client Apps.Proto.resp buf in
          got := Some (Wire.Dyn.get_list msg "vals" |> List.length);
          Wire.Dyn.release ~cpu:none msg;
          Mem.Pinned.Buf.decr_ref ~cpu:none buf);
      let op =
        Workload.Spec.Get { keys = [ Printf.sprintf "user%026d" 1 ] }
      in
      Apps.Kv_app.send_op app op client ~dst:Apps.Rig.server_id ~id:7;
      Sim.Engine.run_all rig.Apps.Rig.engine;
      Alcotest.(check (option int))
        (backend.Apps.Backend.name ^ " two values")
        (Some 2) !got)
    Apps.Backend.all

let test_kv_put_then_get () =
  let backend = Apps.Backend.cornflakes () in
  let rig = Apps.Rig.create ~n_clients:1 () in
  let wl = Workload.Twitter.make ~n_keys:256 () in
  let app = Apps.Kv_app.install rig ~backend ~workload:wl in
  let client = List.hd rig.Apps.Rig.clients in
  let key = "tw:0000000000000005" in
  Apps.Kv_app.send_op app
    (Workload.Spec.Put { key; sizes = [ 700 ] })
    client ~dst:Apps.Rig.server_id ~id:1;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  (match Kvstore.Store.get (Apps.Kv_app.store app) ~key with
  | Some v -> Alcotest.(check int) "new size" 700 (Kvstore.Store.value_len v)
  | None -> Alcotest.fail "key vanished");
  (* And the new value is served. *)
  let got = ref 0 in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      let msg = backend.Apps.Backend.recv client Apps.Proto.resp buf in
      (match Wire.Dyn.get_list msg "vals" with
      | [ Wire.Dyn.Payload p ] -> got := Wire.Payload.len p
      | _ -> ());
      Wire.Dyn.release ~cpu:none msg;
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  Apps.Kv_app.send_op app
    (Workload.Spec.Get { keys = [ key ] })
    client ~dst:Apps.Rig.server_id ~id:2;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Alcotest.(check int) "served updated value" 700 !got

(* --- each request shape through each decoder, on both transports -------- *)

(* Distinct bytes per stored value, so a reply can only match the value it
   asked for. *)
let value_bytes ~tag n =
  String.init n (fun i -> Char.chr (65 + (((tag * 7) + i) mod 58)))

let fixture_workload =
  {
    Workload.Spec.name = "rx-cases";
    store_capacity = 64;
    pool_classes = [ (1024, 64) ];
    populate =
      (fun store ~pool ->
        let buf tag n =
          let b =
            Mem.Pinned.Buf.alloc ~cpu:none ~site:"Test.populate" pool ~len:n
          in
          Mem.Pinned.Buf.fill ~cpu:none ~site:"Test.populate" b (value_bytes ~tag n);
          b
        in
        Kvstore.Store.put_string ~cpu:none store ~key:"single" (Kvstore.Store.Single (buf 1 700));
        Kvstore.Store.put_string ~cpu:none store ~key:"vector"
          (Kvstore.Store.Vector [| buf 2 300; buf 3 900; buf 4 64 |]));
    next = (fun _ -> invalid_arg "rx-cases: ops are sent explicitly");
    mean_response_bytes = 0.0;
  }

(* Ops sent in order; the last one's reply must carry exactly [expect]. *)
let rx_cases =
  let open Workload.Spec in
  [
    ( "put single",
      [ Put { key = "fresh"; sizes = [ 700 ] }; Get { keys = [ "fresh" ] } ],
      [ filler 700 ] );
    ( "put multi-value",
      [ Put { key = "fresh"; sizes = [ 300; 900 ] }; Get { keys = [ "fresh" ] } ],
      [ filler 300; filler 900 ] );
    ("get hit", [ Get { keys = [ "single" ] } ], [ value_bytes ~tag:1 700 ]);
    ("get miss", [ Get { keys = [ "absent" ] } ], []);
    ( "get_index",
      [ Get_index { key = "vector"; index = 1 } ],
      [ value_bytes ~tag:3 900 ] );
  ]

(* What the store holds for the value a query reads. *)
let stored app op =
  let bufs key =
    match Kvstore.Store.get (Apps.Kv_app.store app) ~key with
    | Some v ->
        List.map
          (fun b -> Mem.View.to_string (Mem.Pinned.Buf.view b))
          (Kvstore.Store.buffers v)
    | None -> []
  in
  match op with
  | Workload.Spec.Get { keys } -> List.concat_map bufs keys
  | Workload.Spec.Get_index { key; index } -> [ List.nth (bufs key) index ]
  | Workload.Spec.Put _ -> []

let run_rx_case ~transport backend (label, ops, expect) =
  let name =
    Printf.sprintf "%s %s %s"
      (Apps.Rig.transport_kind_name transport)
      backend.Apps.Backend.name label
  in
  let rig = Apps.Rig.create ~n_clients:1 ~transport () in
  let app = Apps.Kv_app.install rig ~backend ~workload:fixture_workload in
  let client = List.hd rig.Apps.Rig.clients in
  let reply = ref None in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      let msg = backend.Apps.Backend.recv client Apps.Proto.resp buf in
      let vals =
        List.filter_map
          (function
            | Wire.Dyn.Payload p -> Some (Mem.View.to_string (Wire.Payload.view p))
            | _ -> None)
          (Wire.Dyn.get_list msg "vals")
      in
      reply := Some (Wire.Dyn.get_int msg "id", vals);
      Wire.Dyn.release ~cpu:none msg;
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  List.iteri
    (fun i op ->
      reply := None;
      Apps.Kv_app.send_op app op client ~dst:Apps.Rig.server_id ~id:(i + 1);
      Sim.Engine.run_all rig.Apps.Rig.engine;
      match !reply with
      | Some (id, _) ->
          Alcotest.(check (option int64))
            (name ^ " echoes id") (Some (Int64.of_int (i + 1))) id
      | None -> Alcotest.failf "%s: op %d unanswered" name i)
    ops;
  let vals = match !reply with Some (_, v) -> v | None -> [] in
  Alcotest.(check (list string)) name expect vals;
  Alcotest.(check (list string))
    (name ^ " = stored bytes")
    (stored app (List.nth ops (List.length ops - 1)))
    vals

(* The in-place reader rows (Cornflakes) and the Dyn rows (a baseline) must
   serve every request shape identically. *)
let test_kv_rx_cases () =
  List.iter
    (fun transport ->
      List.iter
        (fun backend -> List.iter (run_rx_case ~transport backend) rx_cases)
        [ Apps.Backend.cornflakes (); Apps.Backend.protobuf ])
    [ `Udp; `Tcp ]

let test_open_loop_latency_reasonable () =
  let backend = Apps.Backend.cornflakes () in
  let rig = Apps.Rig.create ~n_clients:4 () in
  let app = Apps.Kv_app.install rig ~backend ~workload:(small_ycsb ()) in
  let send ep ~dst ~id = Apps.Kv_app.send_next app ep ~dst ~id in
  let parse_id = Some (fun buf -> Apps.Kv_app.parse_id app buf) in
  let r =
    Loadgen.Driver.open_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
      ~server:Apps.Rig.server_id ~rate_rps:50_000.0 ~duration_ns:5_000_000
      ~warmup_ns:1_000_000 ~rng:rig.Apps.Rig.rng ~send ~parse_id
  in
  (* 50 krps is far below capacity: achieved ~ offered, latency ~ RTT. *)
  Alcotest.(check bool) "achieved close to offered" true
    (r.Loadgen.Driver.achieved_rps >= 0.85 *. r.Loadgen.Driver.offered_rps);
  let p50 = Loadgen.Driver.p50_ns r in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %d ns sane" p50)
    true
    (p50 > 2_000 && p50 < 30_000)

let test_open_loop_overload_detected () =
  let backend = Apps.Backend.protobuf in
  let rig = Apps.Rig.create ~n_clients:4 () in
  let app = Apps.Kv_app.install rig ~backend ~workload:(small_ycsb ()) in
  let send ep ~dst ~id = Apps.Kv_app.send_next app ep ~dst ~id in
  let parse_id = Some (fun buf -> Apps.Kv_app.parse_id app buf) in
  let r =
    Loadgen.Driver.open_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
      ~server:Apps.Rig.server_id ~rate_rps:20_000_000.0 ~duration_ns:3_000_000
      ~warmup_ns:500_000 ~rng:rig.Apps.Rig.rng ~send ~parse_id
  in
  (* 20 Mrps is far beyond a single core: achieved load must saturate well
     below offered. *)
  Alcotest.(check bool) "saturates" true
    (r.Loadgen.Driver.achieved_rps < 0.5 *. r.Loadgen.Driver.offered_rps)

let test_echo_modes_roundtrip () =
  List.iter
    (fun mode ->
      let rig = Apps.Rig.create ~n_clients:2 () in
      let app = Apps.Echo_app.install rig mode in
      let send ep ~dst ~id =
        Apps.Echo_app.send_request app ~sizes:[ 1024; 512 ] ep ~dst ~id
      in
      let parse_id = Apps.Echo_app.parse_id app in
      let r =
        Loadgen.Driver.closed_loop rig.Apps.Rig.engine
          ~clients:rig.Apps.Rig.clients ~server:Apps.Rig.server_id
          ~outstanding:2 ~duration_ns:1_000_000 ~warmup_ns:0
          ~rng:rig.Apps.Rig.rng ~send ~parse_id
      in
      Alcotest.(check bool)
        (Apps.Echo_app.mode_name mode ^ " echoes")
        true
        (r.Loadgen.Driver.completed > 20))
    [
      Apps.Echo_app.No_serialization;
      Apps.Echo_app.Zero_copy_raw;
      Apps.Echo_app.Zero_copy_safe;
      Apps.Echo_app.One_copy;
      Apps.Echo_app.Two_copy;
      Apps.Echo_app.Lib Apps.Backend.protobuf;
      Apps.Echo_app.Lib (Apps.Backend.cornflakes ());
    ]

let test_no_buffer_leaks_across_requests () =
  (* After a run drains, the only live buffers are the store's values. *)
  let backend = Apps.Backend.cornflakes () in
  let rig, _r = run_kv backend ~requests:300 in
  let live_total =
    List.fold_left
      (fun acc p -> acc + Mem.Pinned.Pool.live p)
      0
      (Mem.Registry.pools rig.Apps.Rig.registry)
  in
  (* 512 keys x 2 buffers (plus the TCP-free rig has no other holders). *)
  Alcotest.(check int) "only store values live" 1024 live_total

let test_server_queue_drops_under_burst () =
  let rig = Apps.Rig.create ~n_clients:1 () in
  let app =
    Apps.Kv_app.install rig ~backend:Apps.Backend.protobuf
      ~workload:(small_ycsb ())
  in
  let client = List.hd rig.Apps.Rig.clients in
  (* Fire a burst at ~6.6 Mrps — far beyond one core — so the server's
     bounded queue must shed load. *)
  for id = 1 to 12_000 do
    Sim.Engine.schedule rig.Apps.Rig.engine ~after:(id * 150) (fun () ->
        Apps.Kv_app.send_op app
          (Workload.Spec.Get { keys = [ Printf.sprintf "user%026d" 1 ] })
          client ~dst:Apps.Rig.server_id ~id)
  done;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Alcotest.(check bool) "some dropped" true
    (Loadgen.Server.dropped rig.Apps.Rig.server > 0
    || Net.Endpoint.rx_dropped rig.Apps.Rig.server_ep > 0
    || Net.Fabric.dropped rig.Apps.Rig.fabric > 0);
  Alcotest.(check bool) "most served" true
    (Loadgen.Server.served rig.Apps.Rig.server > 2_000)

let suite =
  [
    Alcotest.test_case "kv all backends serve" `Slow test_kv_all_backends_serve;
    Alcotest.test_case "kv responses carry values" `Quick
      test_kv_responses_carry_values;
    Alcotest.test_case "kv put then get" `Quick test_kv_put_then_get;
    Alcotest.test_case "kv request shapes x decoders x transports" `Quick
      test_kv_rx_cases;
    Alcotest.test_case "open loop latency" `Quick test_open_loop_latency_reasonable;
    Alcotest.test_case "open loop overload" `Quick test_open_loop_overload_detected;
    Alcotest.test_case "echo modes roundtrip" `Slow test_echo_modes_roundtrip;
    Alcotest.test_case "no buffer leaks" `Quick test_no_buffer_leaks_across_requests;
    Alcotest.test_case "queue drops under burst" `Quick
      test_server_queue_drops_under_burst;
  ]

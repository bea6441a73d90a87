(* Direct tests of the load drivers and the server harness's send-hold
   semantics. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

(* A trivial echo fixture with a controllable artificial service cost. *)
let make_fixture ~service_cycles =
  let rig = Apps.Rig.create ~n_clients:2 () in
  Loadgen.Server.set_handler rig.Apps.Rig.server (fun ~src buf ->
      Memmodel.Cpu.charge rig.Apps.Rig.cpu Memmodel.Cpu.App service_cycles;
      let v = Mem.Pinned.Buf.view buf in
      let s = Mem.View.to_string v in
      let staging =
        Net.Endpoint.alloc_tx rig.Apps.Rig.server_ep
          ~len:(Net.Packet.header_len + String.length s)
      in
      let sv = Mem.Pinned.Buf.view staging in
      Bytes.blit_string s 0 sv.Mem.View.data
        (sv.Mem.View.off + Net.Packet.header_len)
        (String.length s);
      Net.Endpoint.send_inline_header rig.Apps.Rig.server_ep ~dst:src
        ~segments:[ staging ];
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  rig

let send_fn tr ~dst ~id =
  Net.Transport.send_string tr ~dst (Printf.sprintf "%08d-request" id)

let parse_fn buf =
  let s = Mem.View.to_string (Mem.Pinned.Buf.view buf) in
  int_of_string (String.sub s 0 8)

let test_closed_loop_tracks_service_time () =
  (* Artificial service of 30k cycles = 10 us dominates the stack's fixed
     per-request costs (~0.35 us) -> capacity just under 100 krps. *)
  let rig = make_fixture ~service_cycles:30_000.0 in
  let r =
    Loadgen.Driver.closed_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
      ~server:Apps.Rig.server_id ~outstanding:4 ~duration_ns:8_000_000
      ~warmup_ns:1_000_000 ~rng:rig.Apps.Rig.rng ~send:send_fn
      ~parse_id:(Some parse_fn)
  in
  let rps = r.Loadgen.Driver.achieved_rps in
  if rps < 85_000.0 || rps > 101_000.0 then
    Alcotest.failf "capacity %.0f should be just under 100k for 10 us service"
      rps

let test_open_loop_matches_offered_below_capacity () =
  let rig = make_fixture ~service_cycles:3000.0 in
  let r =
    Loadgen.Driver.open_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
      ~server:Apps.Rig.server_id ~rate_rps:300_000.0 ~duration_ns:5_000_000
      ~warmup_ns:1_000_000 ~rng:rig.Apps.Rig.rng ~send:send_fn
      ~parse_id:(Some parse_fn)
  in
  let a = r.Loadgen.Driver.achieved_rps in
  if a < 270_000.0 || a > 330_000.0 then
    Alcotest.failf "achieved %.0f should track offered 300k" a

let test_latency_includes_service_time () =
  (* At very low load, RTT ~ 2x one-way delay + NIC + service. Doubling the
     service cost must raise the p50 by about the difference — proving the
     response is held until the service time elapses. *)
  let measure service_cycles =
    let rig = make_fixture ~service_cycles in
    let r =
      Loadgen.Driver.open_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
        ~server:Apps.Rig.server_id ~rate_rps:10_000.0 ~duration_ns:5_000_000
        ~warmup_ns:500_000 ~rng:rig.Apps.Rig.rng ~send:send_fn
        ~parse_id:(Some parse_fn)
    in
    Stats.Histogram.mean r.Loadgen.Driver.hist
  in
  let fast = measure 3_000.0 (* 1 us *) in
  let slow = measure 18_000.0 (* 6 us *) in
  let delta = slow -. fast in
  if delta < 4_000.0 || delta > 7_000.0 then
    Alcotest.failf "mean rtt delta %.0f ns should be ~5000 (service held)" delta

let test_fifo_matching_mode () =
  let rig = make_fixture ~service_cycles:3000.0 in
  let r =
    Loadgen.Driver.closed_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
      ~server:Apps.Rig.server_id ~outstanding:2 ~duration_ns:2_000_000
      ~warmup_ns:0 ~rng:rig.Apps.Rig.rng ~send:send_fn ~parse_id:None
  in
  Alcotest.(check bool) "fifo mode completes" true
    (r.Loadgen.Driver.completed > 500);
  Alcotest.(check bool) "latencies recorded" true
    (Stats.Histogram.count r.Loadgen.Driver.hist > 500)

let test_hold_rejects_nesting () =
  let rig = Apps.Rig.create ~n_clients:1 () in
  Net.Endpoint.begin_hold rig.Apps.Rig.server_ep;
  Alcotest.check_raises "double hold"
    (Invalid_argument "Endpoint.begin_hold: already holding") (fun () ->
      Net.Endpoint.begin_hold rig.Apps.Rig.server_ep);
  Net.Endpoint.release_hold rig.Apps.Rig.server_ep ~after:0;
  Alcotest.check_raises "release without hold"
    (Invalid_argument "Endpoint.release_hold: not holding") (fun () ->
      Net.Endpoint.release_hold rig.Apps.Rig.server_ep ~after:0)

let test_held_sends_are_delayed () =
  let rig = Apps.Rig.create ~n_clients:1 () in
  let engine = rig.Apps.Rig.engine in
  let client = List.hd rig.Apps.Rig.clients in
  let arrival = ref (-1) in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      arrival := Sim.Engine.now engine;
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  Net.Endpoint.begin_hold rig.Apps.Rig.server_ep;
  let staging =
    Net.Endpoint.alloc_tx rig.Apps.Rig.server_ep ~len:(Net.Packet.header_len + 4)
  in
  Net.Endpoint.send_inline_header rig.Apps.Rig.server_ep ~dst:100
    ~segments:[ staging ];
  Net.Endpoint.release_hold rig.Apps.Rig.server_ep ~after:5_000;
  Sim.Engine.run_all engine;
  (* One-way fabric delay is 850 ns; with the 5 us hold the packet cannot
     arrive before 5850. *)
  Alcotest.(check bool)
    (Printf.sprintf "arrival %d after hold" !arrival)
    true (!arrival >= 5_850)

(* The drivers over the TCP transport: an echo fixture answering through
   the rig's server transport, driven open-loop at a rate far below
   capacity. Claims: Poisson arrivals are admitted (achieved tracks
   offered within noise, same as UDP), and the 3-way handshakes the
   drivers issue at setup complete during warmup — were a handshake RTT
   ever charged to a request, the low-load latency would stand well above
   the UDP distribution instead of within a few microseconds of it. *)
let transport_fixture transport =
  let rig = Apps.Rig.create ~n_clients:2 ~transport () in
  Loadgen.Server.set_handler rig.Apps.Rig.server (fun ~src buf ->
      Memmodel.Cpu.charge rig.Apps.Rig.cpu Memmodel.Cpu.App 3000.0;
      let s = Mem.View.to_string (Mem.Pinned.Buf.view buf) in
      Net.Transport.send_string rig.Apps.Rig.server_tr ~dst:src s;
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  rig

let open_loop_at rig ~rate =
  Loadgen.Driver.open_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
    ~server:Apps.Rig.server_id ~rate_rps:rate ~duration_ns:5_000_000
    ~warmup_ns:1_000_000 ~rng:rig.Apps.Rig.rng ~send:send_fn
    ~parse_id:(Some parse_fn)

let test_open_loop_over_tcp_matches_udp () =
  let rate = 100_000.0 in
  let u = open_loop_at (transport_fixture `Udp) ~rate in
  let t = open_loop_at (transport_fixture `Tcp) ~rate in
  let check_tracks name (r : Loadgen.Driver.result) =
    let a = r.Loadgen.Driver.achieved_rps in
    if a < 90_000.0 || a > 110_000.0 then
      Alcotest.failf "%s achieved %.0f should track offered 100k" name a
  in
  check_tracks "udp" u;
  check_tracks "tcp" t;
  (* Handshake excluded from latency accounting: at 100 krps over 2
     clients the connections are long-lived, so TCP's p99 must sit within
     a few microseconds of UDP's (record framing + ACK processing), not a
     handshake RTT (~2 us one-way x 3 legs) above it. *)
  let p99_u = Loadgen.Driver.p99_ns u and p99_t = Loadgen.Driver.p99_ns t in
  if p99_t > p99_u + 5_000 then
    Alcotest.failf "tcp p99 %d ns too far above udp p99 %d ns" p99_t p99_u

let test_closed_loop_over_tcp_completes () =
  let rig = transport_fixture `Tcp in
  let r =
    Loadgen.Driver.closed_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
      ~server:Apps.Rig.server_id ~outstanding:4 ~duration_ns:3_000_000
      ~warmup_ns:500_000 ~rng:rig.Apps.Rig.rng ~send:send_fn
      ~parse_id:(Some parse_fn)
  in
  Alcotest.(check bool) "closed loop over tcp completes" true
    (r.Loadgen.Driver.completed > 1_000)

let suite =
  [
    Alcotest.test_case "closed loop tracks service time" `Quick
      test_closed_loop_tracks_service_time;
    Alcotest.test_case "open loop over tcp matches udp" `Quick
      test_open_loop_over_tcp_matches_udp;
    Alcotest.test_case "closed loop over tcp" `Quick
      test_closed_loop_over_tcp_completes;
    Alcotest.test_case "open loop below capacity" `Quick
      test_open_loop_matches_offered_below_capacity;
    Alcotest.test_case "latency includes service" `Quick
      test_latency_includes_service_time;
    Alcotest.test_case "fifo matching" `Quick test_fifo_matching_mode;
    Alcotest.test_case "hold rejects nesting" `Quick test_hold_rejects_nesting;
    Alcotest.test_case "held sends delayed" `Quick test_held_sends_are_delayed;
  ]

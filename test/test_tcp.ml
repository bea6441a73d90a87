(* TCP stack tests: handshake, message delivery, segmentation, loss and
   retransmission, zero-copy references held until ACK. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

type tcp_env = {
  engine : Sim.Engine.t;
  fabric : Net.Fabric.t;
  space : Mem.Addr_space.t;
  registry : Mem.Registry.t;
  a : Tcp.Stack.t;
  b : Tcp.Stack.t;
}

let make ?(loss = 0.0) ?(cpu_a = Memmodel.Cpu.none) () =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create ~loss_rate:loss engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let ep_a = Net.Endpoint.create ~cpu:cpu_a fabric registry ~id:1 in
  let ep_b = Net.Endpoint.create ~cpu:none fabric registry ~id:2 in
  {
    engine;
    fabric;
    space;
    registry;
    a = Tcp.Stack.attach ep_a;
    b = Tcp.Stack.attach ep_b;
  }

let data_pool env =
  let pool =
    Mem.Pinned.Pool.create env.space ~name:"tcpdata"
      ~classes:[ (1024, 64); (4096, 32); (16384, 16) ]
  in
  Mem.Registry.register env.registry pool;
  pool

let collect_messages stack =
  let out = Queue.create () in
  Tcp.Stack.set_on_message stack (fun _conn buf ->
      Queue.add (Mem.View.to_string (Mem.Pinned.Buf.view buf)) out;
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  out

let test_handshake () =
  let env = make () in
  let conn = Tcp.Stack.connect env.a ~peer:2 in
  Alcotest.(check bool) "not yet" false (Tcp.Conn.is_established conn);
  Sim.Engine.run_all env.engine;
  Alcotest.(check bool) "established" true (Tcp.Conn.is_established conn);
  match Tcp.Stack.conn env.b ~peer:1 with
  | Some server_conn ->
      Alcotest.(check bool) "server side too" true
        (Tcp.Conn.is_established server_conn)
  | None -> Alcotest.fail "server never saw the connection"

let test_small_message_roundtrip () =
  let env = make () in
  let inbox = collect_messages env.b in
  let conn = Tcp.Stack.connect env.a ~peer:2 in
  Tcp.Conn.send_message conn [ Wire.Payload.Literal (Mem.View.of_string env.space "hello tcp") ];
  Sim.Engine.run_all env.engine;
  Alcotest.(check int) "one message" 1 (Queue.length inbox);
  Alcotest.(check string) "payload" "hello tcp" (Queue.take inbox)

let test_message_before_establish_is_queued () =
  let env = make () in
  let inbox = collect_messages env.b in
  let conn = Tcp.Stack.connect env.a ~peer:2 in
  (* Send immediately, before the SYN-ACK can possibly have returned. *)
  Tcp.Conn.send_message conn [ Wire.Payload.Literal (Mem.View.of_string env.space "early") ];
  Sim.Engine.run_all env.engine;
  Alcotest.(check string) "delivered after handshake" "early" (Queue.take inbox)

let test_zero_copy_refs_until_ack () =
  let env = make () in
  let pool = data_pool env in
  let _inbox = collect_messages env.b in
  let conn = Tcp.Stack.connect env.a ~peer:2 in
  Sim.Engine.run_all env.engine;
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:2048 in
  Mem.Pinned.Buf.fill ~cpu:none buf (String.make 2048 'z');
  Mem.Pinned.Buf.incr_ref ~cpu:none buf;
  (* caller keeps one handle; one is consumed by send *)
  Tcp.Conn.send_message conn [ Wire.Payload.Zero_copy buf ];
  (* In flight: the connection holds the send ref (plus NIC in-flight). *)
  Alcotest.(check bool) "held while unacked" true
    (Mem.Pinned.Buf.refcount buf >= 2);
  Alcotest.(check bool) "unacked bytes" true (Tcp.Conn.unacked_bytes conn > 0);
  Sim.Engine.run_all env.engine;
  Alcotest.(check int) "released after ack" 1 (Mem.Pinned.Buf.refcount buf);
  Alcotest.(check int) "fully acked" 0 (Tcp.Conn.unacked_bytes conn)

let test_large_message_segmented () =
  let env = make () in
  let inbox = collect_messages env.b in
  let conn = Tcp.Stack.connect env.a ~peer:2 in
  Sim.Engine.run_all env.engine;
  (* 40 KB: several MSS-sized frames, reassembled in order. *)
  let payload = String.init 40_000 (fun i -> Char.chr (i land 0xff)) in
  Tcp.Conn.send_message conn [ Wire.Payload.Literal (Mem.View.of_string env.space payload) ];
  Sim.Engine.run_all env.engine;
  Alcotest.(check int) "one message" 1 (Queue.length inbox);
  Alcotest.(check string) "intact" payload (Queue.take inbox)

let test_mixed_sources_order () =
  let env = make () in
  let pool = data_pool env in
  let inbox = collect_messages env.b in
  let conn = Tcp.Stack.connect env.a ~peer:2 in
  Sim.Engine.run_all env.engine;
  let zc = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:1000 in
  Mem.Pinned.Buf.fill ~cpu:none zc (String.make 1000 'Z');
  let msg =
    [
      Wire.Payload.Literal (Mem.View.of_string env.space "head-");
      Wire.Payload.Zero_copy zc;
      Wire.Payload.Literal (Mem.View.of_string env.space "-tail");
    ]
  in
  Tcp.Conn.send_message conn msg;
  Sim.Engine.run_all env.engine;
  Alcotest.(check string) "byte order preserved"
    ("head-" ^ String.make 1000 'Z' ^ "-tail")
    (Queue.take inbox)

let test_retransmission_under_loss () =
  let env = make () in
  let inbox = collect_messages env.b in
  let conn = Tcp.Stack.connect env.a ~peer:2 in
  Sim.Engine.run_all env.engine;
  (* Now drop ~40% of packets and send a burst of messages. *)
  Net.Fabric.set_loss_rate env.fabric 0.4;
  for i = 1 to 20 do
    Tcp.Conn.send_message conn
      [ Wire.Payload.Literal (Mem.View.of_string env.space (Printf.sprintf "msg-%03d" i)) ]
  done;
  (* Let retransmissions do their work, then heal the link. *)
  Sim.Engine.run env.engine ~until:(Sim.Engine.now env.engine + 50_000_000);
  Net.Fabric.set_loss_rate env.fabric 0.0;
  Sim.Engine.run_all env.engine;
  Alcotest.(check int) "all messages delivered" 20 (Queue.length inbox);
  (* In order, exactly once. *)
  for i = 1 to 20 do
    Alcotest.(check string) "in order" (Printf.sprintf "msg-%03d" i)
      (Queue.take inbox)
  done;
  Alcotest.(check bool) "retransmissions happened" true
    (Tcp.Conn.retransmissions conn > 0)

(* The sim does not CPU-charge TCP protocol work: on a metered endpoint only
   the data send moves the meter — not the handshake, not a forced
   retransmission, not the ACKs the endpoint sends for its peer's data. *)
let test_protocol_work_unmetered () =
  let cpu = Memmodel.Cpu.create Memmodel.Params.default in
  let env = make ~cpu_a:cpu () in
  let inbox_a = collect_messages env.a and inbox_b = collect_messages env.b in
  let literal s = [ Wire.Payload.Literal (Mem.View.of_string env.space s) ] in
  let conn = Tcp.Stack.connect env.a ~peer:2 in
  Sim.Engine.run_all env.engine;
  Alcotest.(check (float 0.)) "handshake" 0.0 (Memmodel.Cpu.cycles cpu);
  Net.Fabric.set_loss_rate env.fabric 1.0;
  Tcp.Conn.send_message conn (literal "data");
  let sent = Memmodel.Cpu.cycles cpu in
  Alcotest.(check bool) "the data send is metered" true (sent > 0.0);
  Sim.Engine.run env.engine
    ~until:(Sim.Engine.now env.engine + (2 * Tcp.initial_rto_ns));
  Alcotest.(check bool) "retransmitted" true (Tcp.Conn.retransmissions conn >= 1);
  Net.Fabric.set_loss_rate env.fabric 0.0;
  Sim.Engine.run_all env.engine;
  (match Tcp.Stack.conn env.b ~peer:1 with
  | Some c -> Tcp.Conn.send_message c (literal "reply")
  | None -> Alcotest.fail "peer never saw the connection");
  Sim.Engine.run_all env.engine;
  Alcotest.(check int) "data delivered" 1 (Queue.length inbox_b);
  Alcotest.(check int) "reply delivered" 1 (Queue.length inbox_a);
  Alcotest.(check int64) "retransmission and ACKs add nothing"
    (Int64.bits_of_float sent)
    (Int64.bits_of_float (Memmodel.Cpu.cycles cpu))

let test_bidirectional () =
  let env = make () in
  let inbox_b = collect_messages env.b in
  let conn_ab = Tcp.Stack.connect env.a ~peer:2 in
  Sim.Engine.run_all env.engine;
  let inbox_a = collect_messages env.a in
  Tcp.Conn.send_message conn_ab [ Wire.Payload.Literal (Mem.View.of_string env.space "ping") ];
  Sim.Engine.run_all env.engine;
  (match Tcp.Stack.conn env.b ~peer:1 with
  | Some conn_ba ->
      Tcp.Conn.send_message conn_ba
        [ Wire.Payload.Literal (Mem.View.of_string env.space "pong") ]
  | None -> Alcotest.fail "no server conn");
  Sim.Engine.run_all env.engine;
  Alcotest.(check string) "b got ping" "ping" (Queue.take inbox_b);
  Alcotest.(check string) "a got pong" "pong" (Queue.take inbox_a)

let test_many_messages_in_order () =
  let env = make () in
  let inbox = collect_messages env.b in
  let conn = Tcp.Stack.connect env.a ~peer:2 in
  Sim.Engine.run_all env.engine;
  for i = 1 to 200 do
    Tcp.Conn.send_message conn
      [
        Wire.Payload.Literal
          (Mem.View.of_string env.space
             (Printf.sprintf "m%04d:%s" i (String.make (i mod 700) 'x')));
      ]
  done;
  Sim.Engine.run_all env.engine;
  Alcotest.(check int) "all delivered" 200 (Queue.length inbox);
  let first = Queue.take inbox in
  Alcotest.(check string) "first in order" "m0001:" (String.sub first 0 6)

let qcheck_tcp_stream_integrity =
  QCheck.Test.make ~name:"tcp delivers the exact byte stream under loss"
    ~count:25
    QCheck.(pair small_nat (int_bound 30))
    (fun (seed, loss_pct) ->
      let loss = float_of_int loss_pct /. 100.0 in
      let env = make () in
      let rng = Sim.Rng.create ~seed:(seed + 1000) in
      let inbox = collect_messages env.b in
      let conn = Tcp.Stack.connect env.a ~peer:2 in
      Sim.Engine.run_all env.engine;
      Net.Fabric.set_loss_rate env.fabric loss;
      let sent = ref [] in
      let n = 5 + Sim.Rng.int rng 10 in
      for i = 1 to n do
        let len = Sim.Rng.int rng 12_000 in
        let s =
          String.init len (fun j -> Char.chr ((i + (j * 7)) land 0xff))
        in
        sent := s :: !sent;
        Tcp.Conn.send_message conn [ Wire.Payload.Literal (Mem.View.of_string env.space s) ]
      done;
      Sim.Engine.run env.engine ~until:(Sim.Engine.now env.engine + 100_000_000);
      Net.Fabric.set_loss_rate env.fabric 0.0;
      Sim.Engine.run_all env.engine;
      let got = List.of_seq (Queue.to_seq inbox) in
      got = List.rev !sent)

let suite =
  [
    Alcotest.test_case "handshake" `Quick test_handshake;
    Alcotest.test_case "small message roundtrip" `Quick test_small_message_roundtrip;
    Alcotest.test_case "pre-establish queueing" `Quick
      test_message_before_establish_is_queued;
    Alcotest.test_case "zero-copy refs until ack" `Quick test_zero_copy_refs_until_ack;
    Alcotest.test_case "large message segmented" `Quick test_large_message_segmented;
    Alcotest.test_case "mixed sources order" `Quick test_mixed_sources_order;
    Alcotest.test_case "retransmission under loss" `Quick test_retransmission_under_loss;
    Alcotest.test_case "protocol work is unmetered" `Quick
      test_protocol_work_unmetered;
    Alcotest.test_case "bidirectional" `Quick test_bidirectional;
    Alcotest.test_case "many messages in order" `Quick test_many_messages_in_order;
    QCheck_alcotest.to_alcotest qcheck_tcp_stream_integrity;
  ]

let test_adaptive_rto_tracks_rtt () =
  let env = make () in
  let _inbox = collect_messages env.b in
  let conn = Tcp.Stack.connect env.a ~peer:2 in
  Sim.Engine.run_all env.engine;
  Alcotest.(check int) "initial rto" Tcp.initial_rto_ns (Tcp.Conn.rto_ns conn);
  for _ = 1 to 10 do
    Tcp.Conn.send_message conn [ Wire.Payload.Literal (Mem.View.of_string env.space "rtt") ];
    Sim.Engine.run_all env.engine
  done;
  (* RTT on the sim fabric is a few microseconds, so the adapted RTO must
     collapse to the floor — far below the 200 us initial value. *)
  let srtt = Tcp.Conn.srtt_ns conn in
  Alcotest.(check bool)
    (Printf.sprintf "srtt %.0f sane" srtt)
    true
    (srtt > 1_000.0 && srtt < 20_000.0);
  Alcotest.(check bool)
    (Printf.sprintf "rto %d adapted down" (Tcp.Conn.rto_ns conn))
    true
    (Tcp.Conn.rto_ns conn < Tcp.initial_rto_ns)

let test_fast_retransmit_on_dup_acks () =
  let env = make () in
  let inbox = collect_messages env.b in
  let conn = Tcp.Stack.connect env.a ~peer:2 in
  Sim.Engine.run_all env.engine;
  (* Drop everything briefly so one frame is lost, then heal and send more
     messages: their ACKs duplicate (still expecting the hole), triggering a
     fast retransmit well before the RTO fires. *)
  Net.Fabric.set_loss_rate env.fabric 1.0;
  Tcp.Conn.send_message conn [ Wire.Payload.Literal (Mem.View.of_string env.space "lost-one") ];
  Sim.Engine.run env.engine ~until:(Sim.Engine.now env.engine + 5_000);
  Net.Fabric.set_loss_rate env.fabric 0.0;
  for i = 1 to 4 do
    Tcp.Conn.send_message conn
      [ Wire.Payload.Literal (Mem.View.of_string env.space (Printf.sprintf "later-%d" i)) ]
  done;
  (* Run shorter than the initial RTO: recovery must come from dup-ACKs. *)
  Sim.Engine.run env.engine ~until:(Sim.Engine.now env.engine + 100_000);
  Alcotest.(check bool) "retransmitted" true (Tcp.Conn.retransmissions conn >= 1);
  Alcotest.(check int) "all five delivered in order" 5 (Queue.length inbox);
  Alcotest.(check string) "hole filled first" "lost-one" (Queue.take inbox)

(* Unlike UDP — which releases segment references at DMA completion — TCP
   must keep them until the cumulative ACK, or a retransmission would read
   freed memory. Withhold every packet to the sender (so the data frame
   reaches the peer and its DMA completion fires, but the ACK never comes
   back) and check the buffer stays pinned; then heal the link and check
   the ACK releases it. *)
let test_completion_before_ack_keeps_pinned () =
  let env = make () in
  let pool = data_pool env in
  let _inbox = collect_messages env.b in
  let conn = Tcp.Stack.connect env.a ~peer:2 in
  Sim.Engine.run_all env.engine;
  let plan =
    Faults.Plan.make ~seed:7
      [
        {
          Faults.Plan.fault = Faults.Plan.Drop;
          schedule = Faults.Plan.Probability 1.0;
          scope = Faults.Plan.Endpoint 1;
        };
      ]
  in
  Net.Fabric.set_injector env.fabric (Some (Faults.Injector.create plan));
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:1500 in
  Mem.Pinned.Buf.fill ~cpu:none buf (String.make 1500 'p');
  Mem.Pinned.Buf.incr_ref ~cpu:none buf (* caller keeps one handle *);
  Tcp.Conn.send_message conn [ Wire.Payload.Zero_copy buf ];
  (* Run well past the NIC completion (sub-microsecond) and the first RTO:
     every TX completion has been processed, yet with the ACK path severed
     the connection must still hold its reference. *)
  Sim.Engine.run env.engine ~until:(Sim.Engine.now env.engine + 1_000_000);
  Alcotest.(check bool) "pinned after completion, before ack" true
    (Mem.Pinned.Buf.refcount buf >= 2);
  Alcotest.(check bool) "bytes still unacked" true
    (Tcp.Conn.unacked_bytes conn > 0);
  Alcotest.(check bool) "retransmitting meanwhile" true
    (Tcp.Conn.retransmissions conn >= 1);
  Net.Fabric.set_injector env.fabric None;
  Sim.Engine.run_all env.engine;
  Alcotest.(check int) "released once acked" 1 (Mem.Pinned.Buf.refcount buf);
  Alcotest.(check int) "fully acked" 0 (Tcp.Conn.unacked_bytes conn);
  Mem.Pinned.Buf.decr_ref ~cpu:none buf

(* Faultline end-to-end over TCP: the same seeded loss plan every run, a
   mixed Literal/Zero_copy message sequence, and three claims — the
   delivered stream is byte-identical to a lossless run (exactly-once, in
   order), retransmissions actually happened, and a RefSan-sanitized pass
   quiesces with zero leaks and zero hazards even though loss forces
   frames to sit pinned across retransmit timers. *)
let test_faultline_loss_plan_stream_intact () =
  let messages env pool =
    List.init 25 (fun i ->
        if i mod 5 = 4 then begin
          let len = 900 + (i * 37) in
          let zc = Mem.Pinned.Buf.alloc ~cpu:none pool ~len in
          Mem.Pinned.Buf.fill ~cpu:none zc (String.make len (Char.chr (65 + (i mod 26))));
          [ Wire.Payload.Zero_copy zc ]
        end
        else
          [
            Wire.Payload.Literal
              (Mem.View.of_string env.space
                 (Printf.sprintf "m%03d:%s" i (String.make (i mod 400) 'q')));
          ])
  in
  let run ~faulted =
    let env = make () in
    let pool = data_pool env in
    let inbox = collect_messages env.b in
    let conn = Tcp.Stack.connect env.a ~peer:2 in
    Sim.Engine.run_all env.engine;
    if faulted then begin
      let plan =
        Faults.Plan.make ~seed:1234
          [
            {
              Faults.Plan.fault = Faults.Plan.Drop;
              schedule = Faults.Plan.Probability 0.25;
              scope = Faults.Plan.Anywhere;
            };
            {
              Faults.Plan.fault = Faults.Plan.Duplicate;
              schedule = Faults.Plan.Probability 0.1;
              scope = Faults.Plan.Anywhere;
            };
          ]
      in
      Net.Fabric.set_injector env.fabric (Some (Faults.Injector.create plan))
    end;
    List.iter (fun msg -> Tcp.Conn.send_message conn msg) (messages env pool);
    Sim.Engine.run env.engine ~until:(Sim.Engine.now env.engine + 80_000_000);
    Net.Fabric.set_injector env.fabric None;
    Sim.Engine.run_all env.engine;
    let got = List.of_seq (Queue.to_seq inbox) in
    let rtx = Tcp.Conn.retransmissions conn in
    Sim.Engine.quiesce env.engine;
    (got, rtx)
  in
  let was = Sanitizer.Refsan.is_enabled () in
  Sanitizer.Refsan.reset ();
  Sanitizer.Refsan.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Sanitizer.Refsan.set_enabled was;
      Sanitizer.Refsan.reset ())
    (fun () ->
      let clean, rtx_clean = run ~faulted:false in
      let lossy, rtx_lossy = run ~faulted:true in
      Alcotest.(check int) "lossless run never retransmits" 0 rtx_clean;
      Alcotest.(check bool) "retransmissions under the plan" true (rtx_lossy > 0);
      Alcotest.(check int) "every message delivered exactly once"
        (List.length clean) (List.length lossy);
      List.iteri
        (fun i (want, got) ->
          if not (String.equal want got) then
            Alcotest.failf "message %d differs under loss" i)
        (List.combine clean lossy);
      Alcotest.(check int) "refsan: no leaked buffers" 0
        (List.length (Sanitizer.Refsan.leaks ()));
      Alcotest.(check int) "refsan: no hazards" 0
        (Sanitizer.Refsan.hazard_count ()))

let extra_suite =
  [
    Alcotest.test_case "adaptive rto tracks rtt" `Quick test_adaptive_rto_tracks_rtt;
    Alcotest.test_case "fast retransmit on dup acks" `Quick
      test_fast_retransmit_on_dup_acks;
    Alcotest.test_case "completion before ack keeps pinned" `Quick
      test_completion_before_ack_keeps_pinned;
    Alcotest.test_case "faultline loss plan: stream intact" `Quick
      test_faultline_loss_plan_stream_intact;
  ]

(* --- The transport surface ([Tcp.transport]) ------------------------------ *)

(* A connected transport from stack [a] to stack [b], with [b]'s messages
   collected. *)
let transport_env () =
  let env = make () in
  let inbox = collect_messages env.b in
  let tr = Tcp.transport env.a in
  Net.Transport.connect tr ~peer:2;
  Sim.Engine.run_all env.engine;
  (env, tr, inbox)

let conn_to_b env =
  match Tcp.Stack.conn env.a ~peer:2 with
  | Some c -> c
  | None -> Alcotest.fail "no connection to peer 2"

(* A staging head: [headroom] scratch bytes, then [body]. *)
let head_with tr ~headroom body =
  let ep = Net.Transport.endpoint tr in
  let head =
    Net.Endpoint.alloc_tx ep ~len:(headroom + String.length body)
  in
  Mem.Pinned.Buf.fill_substring ~cpu:none
    (Mem.Pinned.Buf.sub head ~off:headroom ~len:(String.length body))
    body ~src_off:0 ~len:(String.length body);
  head

(* A zero-copy segment the caller keeps a handle on: refcount 2, one of
   which the send takes over. *)
let zc_seg pool s =
  let b = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:(String.length s) in
  Mem.Pinned.Buf.fill ~cpu:none b s;
  Mem.Pinned.Buf.incr_ref ~cpu:none b;
  b

let ack_blackhole () =
  Faults.Plan.make ~seed:7
    [
      {
        Faults.Plan.fault = Faults.Plan.Drop;
        schedule = Faults.Plan.Probability 1.0;
        scope = Faults.Plan.Endpoint 1;
      };
    ]

(* Head + two zero-copy segments through the transport: one frame on the
   wire, the record byte-exact at the peer, and the zero-copy references
   pinned past the NIC completion until the ACK. Slots past [zc_n] are not
   sent. *)
let test_transport_fast_path_one_frame () =
  let env, tr, inbox = transport_env () in
  let pool = data_pool env in
  let ep = Net.Transport.endpoint tr in
  let z1 = zc_seg pool (String.make 300 'x') in
  let z2 = zc_seg pool (String.make 200 'y') in
  let unused = zc_seg pool "not sent" in
  let head = head_with tr ~headroom:Tcp.transport_headroom "head:" in
  (* Sever the ACK path, so completion fires but the ACK never returns. *)
  Net.Fabric.set_injector env.fabric
    (Some (Faults.Injector.create (ack_blackhole ())));
  let tx0 = Net.Endpoint.tx_packets ep in
  Net.Transport.send_inline tr ~dst:2 ~head ~zc:[| z1; z2; unused |] ~zc_n:2;
  (* Short of the initial RTO: no retransmission yet. *)
  Sim.Engine.run env.engine ~until:(Sim.Engine.now env.engine + 150_000);
  Alcotest.(check int) "one frame on the wire" 1
    (Net.Endpoint.tx_packets ep - tx0);
  Alcotest.(check int) "completion fired" 0
    (Nic.Device.in_flight (Net.Endpoint.nic ep));
  Alcotest.(check int) "one record" 1 (Queue.length inbox);
  Alcotest.(check string) "byte-exact"
    ("head:" ^ String.make 300 'x' ^ String.make 200 'y')
    (Queue.take inbox);
  Alcotest.(check int) "z1 pinned until ack" 2 (Mem.Pinned.Buf.refcount z1);
  Alcotest.(check int) "z2 pinned until ack" 2 (Mem.Pinned.Buf.refcount z2);
  Alcotest.(check int) "slot past zc_n untouched" 2
    (Mem.Pinned.Buf.refcount unused);
  Net.Fabric.set_injector env.fabric None;
  Sim.Engine.run_all env.engine;
  Alcotest.(check int) "z1 released once acked" 1 (Mem.Pinned.Buf.refcount z1);
  Alcotest.(check int) "z2 released once acked" 1 (Mem.Pinned.Buf.refcount z2);
  Alcotest.(check int) "fully acked" 0
    (Tcp.Conn.unacked_bytes (conn_to_b env));
  Alcotest.(check int) "delivered once" 0 (Queue.length inbox);
  List.iter (Mem.Pinned.Buf.decr_ref ~cpu:none) [ z1; z2; unused; unused ]

(* A fast-path frame lost once is retransmitted from the frame's own
   gather: the retransmission is byte-identical to the first transmission,
   and a RefSan-sanitized run quiesces clean. *)
let test_transport_fast_path_retransmit () =
  let was = Sanitizer.Refsan.is_enabled () in
  Sanitizer.Refsan.reset ();
  Sanitizer.Refsan.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Sanitizer.Refsan.set_enabled was;
      Sanitizer.Refsan.reset ())
    (fun () ->
      let env, tr, inbox = transport_env () in
      let pool = data_pool env in
      let ep = Net.Transport.endpoint tr in
      let frames = ref [] in
      Nic.Device.set_on_wire (Net.Endpoint.nic ep) (fun frame ->
          frames :=
            Bytes.sub_string (Nic.Device.wire_bytes frame) 0
              (Nic.Device.wire_len frame)
            :: !frames;
          Net.Fabric.inject env.fabric frame);
      let plan =
        Faults.Plan.make ~seed:3
          [
            {
              Faults.Plan.fault = Faults.Plan.Drop;
              schedule = Faults.Plan.One_shot { at_event = 1 };
              scope = Faults.Plan.Endpoint 2;
            };
          ]
      in
      Net.Fabric.set_injector env.fabric (Some (Faults.Injector.create plan));
      let z = zc_seg pool (String.make 700 'r') in
      let head = head_with tr ~headroom:Tcp.transport_headroom "rtx:" in
      Net.Transport.send_inline tr ~dst:2 ~head ~zc:[| z |] ~zc_n:1;
      Sim.Engine.run_all env.engine;
      Alcotest.(check int) "one retransmission" 1
        (Tcp.Conn.retransmissions (conn_to_b env));
      (match !frames with
      | [ retransmitted; first ] ->
          Alcotest.(check string) "retransmission byte-identical" first
            retransmitted
      | l -> Alcotest.failf "expected 2 frames, saw %d" (List.length l));
      Alcotest.(check int) "delivered once" 1 (Queue.length inbox);
      Alcotest.(check string) "intact" ("rtx:" ^ String.make 700 'r')
        (Queue.take inbox);
      Alcotest.(check int) "released once acked" 1 (Mem.Pinned.Buf.refcount z);
      Mem.Pinned.Buf.decr_ref ~cpu:none z;
      Sim.Engine.quiesce env.engine;
      Alcotest.(check int) "refsan: no leaked buffers" 0
        (List.length (Sanitizer.Refsan.leaks ()));
      Alcotest.(check int) "refsan: no hazards" 0
        (Sanitizer.Refsan.hazard_count ()))

(* A record above the MSS sent through the transport falls back to
   segmentation and arrives intact. *)
let test_transport_large_record_segmented () =
  let env, tr, inbox = transport_env () in
  let pool = data_pool env in
  let ep = Net.Transport.endpoint tr in
  let big = String.init 12_000 (fun i -> Char.chr (97 + (i mod 26))) in
  let z = zc_seg pool big in
  let head = head_with tr ~headroom:Tcp.transport_headroom "big:" in
  let tx0 = Net.Endpoint.tx_packets ep in
  Net.Transport.send_inline tr ~dst:2 ~head ~zc:[| z |] ~zc_n:1;
  Sim.Engine.run_all env.engine;
  Alcotest.(check bool) "segmented into several frames" true
    (Net.Endpoint.tx_packets ep - tx0 >= 2);
  Alcotest.(check int) "one record" 1 (Queue.length inbox);
  Alcotest.(check string) "intact" ("big:" ^ big) (Queue.take inbox);
  Alcotest.(check int) "released once acked" 1 (Mem.Pinned.Buf.refcount z);
  Mem.Pinned.Buf.decr_ref ~cpu:none z

(* [tr_send_extra] carries no headroom: every byte of the head and of the
   zero-copy segments is record payload. *)
let test_transport_send_extra () =
  let env, tr, inbox = transport_env () in
  let pool = data_pool env in
  let z = zc_seg pool (String.make 64 'e') in
  let head = head_with tr ~headroom:0 "extra-head|" in
  Net.Transport.send_extra tr ~dst:2 ~head ~zc:[| z |] ~zc_n:1;
  Sim.Engine.run_all env.engine;
  Alcotest.(check int) "one record" 1 (Queue.length inbox);
  Alcotest.(check string) "intact" ("extra-head|" ^ String.make 64 'e')
    (Queue.take inbox);
  Alcotest.(check int) "released once acked" 1 (Mem.Pinned.Buf.refcount z);
  Mem.Pinned.Buf.decr_ref ~cpu:none z

(* An inline head shorter than the transport's headroom is rejected the
   same way on both transports, even when the zero-copy segments make the
   gather long enough: nothing goes on the wire and the caller keeps every
   reference. *)
let test_short_head_rejected () =
  let env = make () in
  let pool = data_pool env in
  let _inbox = collect_messages env.b in
  let tcp = Tcp.transport env.a in
  Net.Transport.connect tcp ~peer:2;
  Sim.Engine.run_all env.engine;
  let udp = Net.Endpoint.transport (Tcp.Stack.endpoint env.b) in
  List.iter
    (fun (tr, dst) ->
      let ep = Net.Transport.endpoint tr in
      let head = head_with tr ~headroom:(Net.Transport.headroom tr - 1) "" in
      let z = zc_seg pool (String.make 100 's') in
      let tx0 = Net.Endpoint.tx_packets ep in
      (match Net.Transport.send_inline tr ~dst ~head ~zc:[| z |] ~zc_n:1 with
      | () -> Alcotest.failf "%s: short head accepted" (Net.Transport.name tr)
      | exception Invalid_argument _ -> ());
      Sim.Engine.run_all env.engine;
      Alcotest.(check int)
        (Net.Transport.name tr ^ ": nothing sent")
        0
        (Net.Endpoint.tx_packets ep - tx0);
      Alcotest.(check int)
        (Net.Transport.name tr ^ ": head reference kept")
        1
        (Mem.Pinned.Buf.refcount head);
      Alcotest.(check int)
        (Net.Transport.name tr ^ ": zero-copy references kept")
        2 (Mem.Pinned.Buf.refcount z);
      List.iter (Mem.Pinned.Buf.decr_ref ~cpu:none) [ head; z; z ])
    [ (udp, 1); (tcp, 2) ]

let transport_suite =
  [
    Alcotest.test_case "transport fast path: one frame, pinned until ack"
      `Quick test_transport_fast_path_one_frame;
    Alcotest.test_case "transport fast path: one-shot drop retransmits"
      `Quick test_transport_fast_path_retransmit;
    Alcotest.test_case "transport: record above mss segmented" `Quick
      test_transport_large_record_segmented;
    Alcotest.test_case "transport: send_extra delivers" `Quick
      test_transport_send_extra;
    Alcotest.test_case "short inline head rejected on udp and tcp" `Quick
      test_short_head_rejected;
  ]

let suite = suite @ extra_suite @ transport_suite

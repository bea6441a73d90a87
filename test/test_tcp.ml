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


(* --- The retransmission queue against a list model ------------------------ *)

(* A reference model of the sender: the in-flight frames as a list in
   ascending seq, a cumulative ACK partitioning off the frames it covers,
   RFC 6298 RTT sampling, three-dup-ACK fast retransmit, and a timer that
   retransmits the oldest frame with backoff until [max_retries] aborts the
   connection. It mirrors the protocol constants the interface keeps
   private. *)
let m_min_rto = 100_000

let m_max_rto = 5_000_000

let m_max_retries = 10

let m_dupack_threshold = 3

type m_frame = {
  m_seq : int;
  m_len : int;
  m_bufs : int list; (* the zero-copy buffers it carries, in gather order *)
  mutable m_sent_at : int;
  mutable m_retries : int;
}

type model = {
  mutable now : int;
  mutable snd_nxt : int;
  mutable snd_una : int;
  mutable frames : m_frame list;
  mutable srtt : float;
  mutable rttvar : float;
  mutable rto : int;
  mutable dup_acks : int;
  mutable timer : int option; (* deadline of the armed timer *)
  mutable closed : bool;
  mutable retransmissions : int;
  mutable posted : int list; (* seq of every data frame posted, newest first *)
  mutable released : int list; (* buffers released by this op, newest first *)
  mutable peer_seq : int;
}

let m_arm m = if m.timer = None then m.timer <- Some (m.now + m.rto)

let m_post m f =
  f.m_sent_at <- m.now;
  m.posted <- f.m_seq :: m.posted

let m_release m f = m.released <- List.rev_append f.m_bufs m.released

let m_sample m f =
  if f.m_retries = 0 then begin
    let rtt = float_of_int (m.now - f.m_sent_at) in
    if m.srtt = 0.0 then begin
      m.srtt <- rtt;
      m.rttvar <- rtt /. 2.0
    end
    else begin
      m.rttvar <- (0.75 *. m.rttvar) +. (0.25 *. Float.abs (m.srtt -. rtt));
      m.srtt <- (0.875 *. m.srtt) +. (0.125 *. rtt)
    end;
    m.rto <-
      max m_min_rto
        (min m_max_rto (int_of_float (m.srtt +. (4.0 *. m.rttvar))))
  end

let m_ack m ~ack ~pure =
  if ack > m.snd_una then begin
    m.dup_acks <- 0;
    m.snd_una <- ack;
    let acked, rest =
      List.partition (fun f -> f.m_seq + f.m_len <= ack) m.frames
    in
    m.frames <- rest;
    List.iter
      (fun f ->
        m_sample m f;
        m_release m f)
      acked;
    if rest <> [] then m_arm m
  end
  else if pure && ack = m.snd_una && m.frames <> [] then begin
    m.dup_acks <- m.dup_acks + 1;
    if m.dup_acks >= m_dupack_threshold then begin
      m.dup_acks <- 0;
      match m.frames with
      | oldest :: _ when oldest.m_retries < m_max_retries ->
          oldest.m_retries <- oldest.m_retries + 1;
          m.retransmissions <- m.retransmissions + 1;
          m_post m oldest
      | _ -> ()
    end
  end

let m_check_rto m =
  match m.frames with
  | [] -> ()
  | _ when m.closed -> ()
  | oldest :: _ ->
      if m.now - oldest.m_sent_at >= m.rto then begin
        if oldest.m_retries >= m_max_retries then begin
          m.closed <- true;
          List.iter (m_release m) m.frames;
          m.frames <- []
        end
        else begin
          oldest.m_retries <- oldest.m_retries + 1;
          m.retransmissions <- m.retransmissions + 1;
          m.rto <- min m_max_rto (m.rto * 2);
          m_post m oldest;
          m_arm m
        end
      end
      else m_arm m

let rec m_wait m ~until =
  match m.timer with
  | Some d when d <= until ->
      m.now <- d;
      m.timer <- None;
      m_check_rto m;
      m_wait m ~until
  | _ -> m.now <- until

(* Queue one record: a 4-byte prefix, then [segs] (buffer index, length)
   in order, cut into frames at the MSS ([mss] = max_int: one frame). *)
let m_send m ~mss segs =
  let total = List.fold_left (fun a (_, l) -> a + l) 4 segs in
  let rec cut start acc =
    if start >= total then List.rev acc
    else begin
      let stop = min total (start + mss) in
      (* Segment i covers stream bytes [pos, pos + len). *)
      let _, bufs =
        List.fold_left
          (fun (pos, bufs) (i, len) ->
            ( pos + len,
              if pos < stop && pos + len > start then i :: bufs else bufs ))
          (4, []) segs
      in
      let f =
        {
          m_seq = m.snd_nxt + start;
          m_len = stop - start;
          m_bufs = List.rev bufs;
          m_sent_at = 0;
          m_retries = 0;
        }
      in
      cut stop (f :: acc)
    end
  in
  let frames = cut 0 [] in
  m.snd_nxt <- m.snd_nxt + total;
  m.frames <- m.frames @ frames;
  List.iter (m_post m) frames;
  m_arm m

type q_op =
  | Send_record of int list (* zero-copy segment lengths; 1-3 frames *)
  | Send_inline of int list (* one frame, through the transport *)
  | Ack of int * int (* which ack value (see [ack_value]), a draw *)
  | Data_ack of int * int (* the same, on a peer data frame *)
  | Dup3
  | Wait of int

let show_q_op = function
  | Send_record l ->
      Printf.sprintf "record[%s]" (String.concat "," (List.map string_of_int l))
  | Send_inline l ->
      Printf.sprintf "inline[%s]" (String.concat "," (List.map string_of_int l))
  | Ack (k, r) -> Printf.sprintf "ack(%d,%d)" k r
  | Data_ack (k, r) -> Printf.sprintf "data-ack(%d,%d)" k r
  | Dup3 -> "dup3"
  | Wait dt -> Printf.sprintf "wait %d" dt

(* [n] (1-3) positive lengths summing to [total]. *)
let gen_split total =
  QCheck.Gen.(
    if total = 1 then return [ 1 ]
    else
    int_range 1 (min 3 total) >>= fun n ->
    list_repeat (n - 1) (int_range 1 (total - 1)) >|= fun cuts ->
    let cuts = List.sort_uniq compare cuts in
    let _, lens =
      List.fold_left (fun (prev, acc) c -> (c, (c - prev) :: acc)) (0, []) cuts
    in
    List.rev ((total - List.fold_left ( + ) 0 lens) :: lens))

let gen_q_op =
  let mss = Tcp.mss in
  QCheck.Gen.(
    frequency
      [
        ( 3,
          oneof
            [
              int_range 1 200;
              int_range 1 (mss - 4);
              int_range (mss - 3) ((3 * mss) - 4);
            ]
          >>= gen_split >|= fun l -> Send_record l );
        (2, int_range 1 2000 >>= gen_split >|= fun l -> Send_inline l);
        (5, map2 (fun k r -> Ack (k, r)) (int_bound 4) nat);
        (1, map2 (fun k r -> Data_ack (k, r)) (int_bound 4) nat);
        (1, return Dup3);
        ( 2,
          oneof
            [
              int_range 1 20_000;
              int_range 50_000 400_000;
              int_range 1_000_000 8_000_000;
              return 60_000_000;
            ]
          >|= fun dt -> Wait dt );
      ])

(* The ack a draw names: stale, duplicate, a frame's end, inside a frame,
   or everything sent (and a little beyond). *)
let ack_value m (kind, r) =
  match (kind, m.frames) with
  | 0, _ -> m.snd_una - 1 - (r mod 1000)
  | 2, (_ :: _ as fs) ->
      let f = List.nth fs (r mod List.length fs) in
      f.m_seq + f.m_len
  | 3, (_ :: _ as fs) ->
      let f = List.nth fs (r mod List.length fs) in
      f.m_seq + (r mod f.m_len)
  | 4, _ -> m.snd_nxt + (r mod 3)
  | _ -> m.snd_una

let set_u32 b pos x = Bytes.set_int32_le b pos (Int32.of_int x)

(* Drive one connection frame by frame: its frames are taken off the wire
   (and dropped), the peer's frames are built here and handed to
   [Tcp.Stack.receive] at the current simulated time, and time moves only
   by [Wait] and while the NIC drains. After every op the connection must
   agree with the model on the buffers released (in order), [snd_una], the
   retransmission count and the RTT estimate; at the end, on every data
   frame posted. *)
let run_queue_model ops =
  Sanitizer.Refsan.reset ();
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let ep = Net.Endpoint.create ~cpu:none fabric registry ~id:1 in
  let stack = Tcp.Stack.attach ep in
  let on_wire = ref [] in
  Nic.Device.set_on_wire (Net.Endpoint.nic ep) (fun w ->
      let b = Nic.Device.wire_bytes w and o = Net.Packet.header_len in
      on_wire :=
        (Char.code (Bytes.get b o), Int32.to_int (Bytes.get_int32_le b (o + 4)))
        :: !on_wire;
      Nic.Device.wire_release w);
  let mk_pool name classes =
    let p = Mem.Pinned.Pool.create space ~name ~classes in
    Mem.Registry.register registry p;
    p
  in
  let peer_pool = mk_pool "peer-frames" [ (64, 64) ] in
  let zc_pool =
    mk_pool "queue-zc" [ (1024, 128); (8192, 128); (32768, 128) ]
  in
  let peer_frame ~flags ~seq ~ack ~payload =
    let len = Tcp.header_len + String.length payload in
    let b = Bytes.make len '\000' in
    Bytes.set b 0 (Char.chr flags);
    set_u32 b 4 seq;
    set_u32 b 8 ack;
    set_u32 b 12 (String.length payload);
    Bytes.blit_string payload 0 b Tcp.header_len (String.length payload);
    let buf = Mem.Pinned.Buf.alloc ~cpu:none peer_pool ~len in
    Mem.Pinned.Buf.fill ~cpu:none buf (Bytes.to_string b);
    Tcp.Stack.receive stack ~src:2 buf
  in
  let conn = Tcp.Stack.connect stack ~peer:2 in
  Sim.Engine.run engine ~until:10_000;
  let isn =
    match !on_wire with
    | [ (1, isn) ] -> isn
    | _ -> Alcotest.fail "expected one SYN on the wire"
  in
  on_wire := [];
  let peer_isn = 77_000 in
  peer_frame ~flags:3 ~seq:peer_isn ~ack:(isn + 1) ~payload:"";
  if not (Tcp.Conn.is_established conn) then Alcotest.fail "not established";
  let m =
    {
      now = 10_000;
      snd_nxt = isn + 1;
      snd_una = isn + 1;
      frames = [];
      srtt = 0.0;
      rttvar = 0.0;
      rto = Tcp.initial_rto_ns;
      dup_acks = 0;
      timer = None;
      closed = false;
      retransmissions = 0;
      posted = [];
      released = [];
      peer_seq = peer_isn + 1;
    }
  in
  let tr = Tcp.transport stack in
  (* Every zero-copy buffer sent, by index; the test keeps one reference
     on each so it can read their RefSan histories until the end. *)
  let bufs = ref [||] in
  let new_segs lens =
    List.map
      (fun len ->
        let b = Mem.Pinned.Buf.alloc ~cpu:none zc_pool ~len in
        Mem.Pinned.Buf.fill ~cpu:none b (String.make len 'q');
        Mem.Pinned.Buf.incr_ref ~cpu:none b;
        bufs := Array.append !bufs [| b |];
        (Array.length !bufs - 1, b))
      lens
  in
  (* Buffer indices released at Tcp.acked / Tcp.abort since [watermark],
     in ledger order, and the newest ledger seq seen. *)
  let watermark = ref 0 in
  let observed_releases () =
    let evs = ref [] and top = ref !watermark in
    Array.iteri
      (fun i b ->
        List.iter
          (fun line ->
            match
              Scanf.sscanf line "#%d %s @ %s" (fun seq kind site ->
                  (seq, kind, site))
            with
            | seq, kind, site ->
                top := max !top seq;
                if
                  seq > !watermark && kind = "decref"
                  && (site = "Tcp.acked" || site = "Tcp.abort")
                then evs := (seq, i) :: !evs
            | exception Scanf.Scan_failure _ -> ())
          (Sanitizer.Refsan.history (Mem.Pinned.Buf.san_id b)))
      !bufs;
    watermark := !top;
    List.map snd (List.sort compare !evs)
  in
  let seg_lens = List.map (fun (i, b) -> (i, Mem.Pinned.Buf.len b)) in
  let fail_at i op fmt =
    Printf.ksprintf
      (fun s -> QCheck.Test.fail_reportf "op %d (%s): %s" i (show_q_op op) s)
      fmt
  in
  let exec op =
    match op with
    | Send_record lens when not m.closed ->
        let segs = new_segs lens in
        m_send m ~mss:Tcp.mss (seg_lens segs);
        Tcp.Conn.send_message conn
          (List.map (fun (_, b) -> Wire.Payload.Zero_copy b) segs)
    | Send_inline lens when not m.closed ->
        let segs = new_segs lens in
        m_send m ~mss:max_int (seg_lens segs);
        let head = Net.Endpoint.alloc_tx ep ~len:Tcp.transport_headroom in
        let zc = Array.of_list (List.map snd segs) in
        Net.Transport.send_inline tr ~dst:2 ~head ~zc ~zc_n:(Array.length zc)
    | Send_record _ | Send_inline _ -> ()
    | Ack (k, r) ->
        let ack = ack_value m (k, r) in
        m_ack m ~ack ~pure:true;
        peer_frame ~flags:2 ~seq:m.peer_seq ~ack ~payload:""
    | Data_ack (k, r) ->
        let ack = ack_value m (k, r) in
        m_ack m ~ack ~pure:false;
        peer_frame ~flags:6 ~seq:m.peer_seq ~ack ~payload:"\000\000\000\000";
        m.peer_seq <- m.peer_seq + 4
    | Dup3 ->
        for _ = 1 to 3 do
          m_ack m ~ack:m.snd_una ~pure:true;
          peer_frame ~flags:2 ~seq:m.peer_seq ~ack:m.snd_una ~payload:""
        done
    | Wait dt ->
        m_wait m ~until:(m.now + dt);
        Sim.Engine.run engine ~until:m.now
  in
  let check i op =
    let want = List.rev m.released and got = observed_releases () in
    m.released <- [];
    let show l = String.concat " " (List.map string_of_int l) in
    if want <> got then
      fail_at i op "released [%s], model [%s]" (show got) (show want);
    if Tcp.Conn.unacked_bytes conn <> m.snd_nxt - m.snd_una then
      fail_at i op "unacked %d, model %d" (Tcp.Conn.unacked_bytes conn)
        (m.snd_nxt - m.snd_una);
    if Tcp.Conn.retransmissions conn <> m.retransmissions then
      fail_at i op "retransmissions %d, model %d"
        (Tcp.Conn.retransmissions conn) m.retransmissions;
    if Tcp.Conn.rto_ns conn <> m.rto then
      fail_at i op "rto %d, model %d" (Tcp.Conn.rto_ns conn) m.rto;
    if Int64.bits_of_float (Tcp.Conn.srtt_ns conn) <> Int64.bits_of_float m.srtt
    then fail_at i op "srtt %h, model %h" (Tcp.Conn.srtt_ns conn) m.srtt;
    if Tcp.Conn.is_established conn = m.closed then
      fail_at i op "established %b, model closed %b"
        (Tcp.Conn.is_established conn) m.closed
  in
  (* An ACK cannot overtake the frame it acknowledges: after each op, let
     the NIC finish every transmission it holds (1 us steps, the model in
     lockstep) before the peer's next frame arrives. Otherwise a fast
     retransmit would rewrite the header of a frame still being sent. *)
  let nic = Net.Endpoint.nic ep in
  let settle () =
    while Nic.Device.in_flight nic > 0 do
      m_wait m ~until:(m.now + 1_000);
      Sim.Engine.run engine ~until:m.now
    done
  in
  List.iteri
    (fun i op ->
      exec op;
      settle ();
      check i op)
    ops;
  (* Acknowledge everything, drain the engine, and compare every data
     frame that went on the wire. *)
  let last = List.length ops in
  let final = Ack (4, 0) in
  let ack = max m.snd_nxt (m.snd_una + 1) in
  m_ack m ~ack ~pure:true;
  peer_frame ~flags:2 ~seq:m.peer_seq ~ack ~payload:"";
  check last final;
  Sim.Engine.run_all engine;
  let sent =
    List.rev_map snd
      (List.filter (fun (flags, _) -> flags land 4 <> 0) !on_wire)
  in
  if sent <> List.rev m.posted then
    fail_at last final "data frames on the wire differ from the model";
  Array.iter (Mem.Pinned.Buf.decr_ref ~cpu:none) !bufs;
  Sim.Engine.quiesce engine;
  let leaks = List.length (Sanitizer.Refsan.leaks ())
  and hazards = Sanitizer.Refsan.hazard_count () in
  if leaks <> 0 || hazards <> 0 then
    fail_at last final "refsan: %d leaks, %d hazards" leaks hazards;
  true

let qcheck_send_queue_model =
  QCheck.Test.make ~name:"send queue matches a list model" ~count:200
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_q_op ops))
        Gen.(int_range 1 40 >>= fun n -> list_repeat n gen_q_op))
    (fun ops ->
      let was = Sanitizer.Refsan.is_enabled () in
      Sanitizer.Refsan.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Sanitizer.Refsan.set_enabled was;
          Sanitizer.Refsan.reset ())
        (fun () -> run_queue_model ops))

let queue_suite = [ QCheck_alcotest.to_alcotest qcheck_send_queue_model ]

let suite = suite @ queue_suite

(* --- Reassembly under faults ---------------------------------------------- *)

(* Records of 0-20 KB (those above the MSS straddle frames and are
   reassembled) through a Faultline plan that drops, reorders and
   duplicates frames: the peer receives exactly the records of the
   lossless run, byte for byte and in order. *)
let qcheck_reassembly_under_faults =
  QCheck.Test.make ~name:"tcp reassembly under drop/reorder/dup plans" ~count:20
    QCheck.(
      pair small_nat (list_of_size Gen.(int_range 1 12) (int_bound 20_000)))
    (fun (seed, sizes) ->
      let records =
        List.mapi
          (fun i len ->
            String.init len (fun j -> Char.chr ((i + (j * 31)) land 0xff)))
          sizes
      in
      let run ~faulted =
        let env = make () in
        let inbox = collect_messages env.b in
        let conn = Tcp.Stack.connect env.a ~peer:2 in
        Sim.Engine.run_all env.engine;
        if faulted then begin
          let rule fault p =
            {
              Faults.Plan.fault;
              schedule = Faults.Plan.Probability p;
              scope = Faults.Plan.Anywhere;
            }
          in
          let plan =
            Faults.Plan.make ~seed
              [
                rule Faults.Plan.Drop 0.1;
                rule Faults.Plan.Reorder 0.15;
                rule Faults.Plan.Duplicate 0.1;
              ]
          in
          Net.Fabric.set_injector env.fabric
            (Some (Faults.Injector.create plan))
        end;
        List.iter
          (fun r ->
            Tcp.Conn.send_message conn
              [ Wire.Payload.Literal (Mem.View.of_string env.space r) ])
          records;
        Sim.Engine.run env.engine
          ~until:(Sim.Engine.now env.engine + 100_000_000);
        Net.Fabric.set_injector env.fabric None;
        Sim.Engine.run_all env.engine;
        List.of_seq (Queue.to_seq inbox)
      in
      let clean = run ~faulted:false in
      clean = records && run ~faulted:true = clean)

(* --- Allocation ----------------------------------------------------------- *)

(* One record through the transport fast path, its delivery and its ACK.
   A round trip allocates five 4-word pinned-buffer handles (20 words) and
   nothing else: the sender's head, one RX handle per frame from the NIC
   (the record's and the ACK's), the window the stack delivers and the
   ACK's staging buffer. The stack's own share — all but the sender's head
   and the two NIC handles, 8 words — stays within 8 words over 10^4
   round trips after warm-up. *)
let test_fast_path_round_trip_alloc () =
  let env, tr, _ = transport_env () in
  Tcp.Stack.set_on_message env.b (fun _ buf ->
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  let ep = Net.Transport.endpoint tr in
  let round_trip () =
    let head = Net.Endpoint.alloc_tx ep ~len:(Tcp.transport_headroom + 64) in
    Net.Transport.send_inline tr ~dst:2 ~head ~zc:[||] ~zc_n:0;
    Sim.Engine.run_all env.engine
  in
  for _ = 1 to 1_000 do
    round_trip ()
  done;
  let trips = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to trips do
    round_trip ()
  done;
  let per_trip = (Gc.minor_words () -. w0) /. float_of_int trips in
  let handle =
    let h = Net.Endpoint.alloc_tx ep ~len:1 in
    Mem.Pinned.Buf.decr_ref ~cpu:none h;
    float_of_int (Obj.size (Obj.repr h) + 1)
  in
  let stack_words = per_trip -. (3.0 *. handle) in
  if stack_words > 8.0 then
    Alcotest.failf
      "%.1f words per round trip, %.1f of them the stack's (ceiling 8)"
      per_trip stack_words;
  Alcotest.(check int) "every record acknowledged" 0
    (Tcp.Conn.unacked_bytes (conn_to_b env))

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest qcheck_reassembly_under_faults;
      Alcotest.test_case "tcp fast-path round trip allocates <= 8 words" `Quick
        test_fast_path_round_trip_alloc;
    ]

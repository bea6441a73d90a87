(* Tests for the RPC runtime (lib/rpc) and the generated service layer:
   the dispatch table, the deadline clock, stream sequencing, the client
   call state, and the compiler-generated [Kv_msgs.Kv_service] stub +
   skeleton driven end to end over the loopback fabric — including a
   QCheck property that the stub's folded encode round-trips
   byte-identically against both the skeleton's in-place reader and a
   [Wire.Dyn] decode of the same frame, streamed responses included. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

(* --- Table --------------------------------------------------------------- *)

let test_table_dispatch () =
  let t = Rpc.Table.create ~n:3 ~fallback:"fb" in
  Alcotest.(check int) "size" 3 (Rpc.Table.size t);
  Rpc.Table.set t ~id:0 "a";
  Rpc.Table.set t ~id:2 "c";
  Alcotest.(check string) "slot 0" "a" (Rpc.Table.dispatch t 0);
  Alcotest.(check string) "slot 2" "c" (Rpc.Table.dispatch t 2);
  Alcotest.(check string) "unset slot" "fb" (Rpc.Table.dispatch t 1);
  Alcotest.(check string) "below range" "fb" (Rpc.Table.dispatch t (-1));
  Alcotest.(check string) "above range" "fb" (Rpc.Table.dispatch t 99);
  (match Rpc.Table.set t ~id:3 "x" with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match Rpc.Table.create ~n:(-1) ~fallback:"fb" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- Deadline ------------------------------------------------------------ *)

let test_deadline_clock () =
  Alcotest.(check int) "ns_of_ms" 3_000_000 (Rpc.Deadline.ns_of_ms 3);
  (match Rpc.Deadline.ns_of_ms 0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let engine = Sim.Engine.create () in
  let expiry = Rpc.Deadline.expiry engine ~deadline_ms:1 in
  Alcotest.(check int) "expiry" 1_000_000 expiry;
  Alcotest.(check int) "remaining" 1_000_000
    (Rpc.Deadline.remaining_ns engine ~expiry);
  Alcotest.(check bool) "not yet expired" false
    (Rpc.Deadline.expired engine ~expiry);
  let checked = ref false in
  Sim.Engine.schedule engine ~after:1_000_000 (fun () ->
      Alcotest.(check bool) "expired at deadline" true
        (Rpc.Deadline.expired engine ~expiry);
      Alcotest.(check int) "nothing remaining" 0
        (Rpc.Deadline.remaining_ns engine ~expiry);
      checked := true);
  Sim.Engine.run_all engine;
  Alcotest.(check bool) "ran" true !checked

(* --- Stream -------------------------------------------------------------- *)

let test_stream_word () =
  List.iter
    (fun seq ->
      List.iter
        (fun last ->
          let w = Rpc.Stream.word ~seq ~last in
          Alcotest.(check int) "seq round-trips" seq (Rpc.Stream.seq_of w);
          Alcotest.(check bool) "last bit" last (Rpc.Stream.is_last w))
        [ false; true ])
    [ 0; 1; 5; 1000 ];
  match Rpc.Stream.word ~seq:(-1) ~last:false with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_stream_cursor_collector () =
  let cur = Rpc.Stream.cursor () in
  let coll = Rpc.Stream.collector () in
  let w0 = Rpc.Stream.next cur ~last:false in
  let w1 = Rpc.Stream.next cur ~last:false in
  let w2 = Rpc.Stream.next cur ~last:true in
  Alcotest.(check bool) "cursor closed" true (Rpc.Stream.closed cur);
  Alcotest.(check int) "emitted" 3 (Rpc.Stream.emitted cur);
  (match Rpc.Stream.next cur ~last:false with
  | _ -> Alcotest.fail "expected Invalid_argument after close"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "chunk 0" true (Rpc.Stream.observe coll w0 = `Chunk);
  Alcotest.(check bool) "chunk 1" true (Rpc.Stream.observe coll w1 = `Chunk);
  Alcotest.(check bool) "last" true (Rpc.Stream.observe coll w2 = `Last);
  Alcotest.(check bool) "finished" true (Rpc.Stream.finished coll);
  Alcotest.(check int) "received" 3 (Rpc.Stream.received coll);
  Alcotest.(check bool) "after end" true
    (Rpc.Stream.observe coll w2 = `After_end);
  let ooo = Rpc.Stream.collector () in
  Alcotest.(check bool) "out of order" true
    (Rpc.Stream.observe ooo w1 = `Out_of_order);
  Rpc.Stream.reset ooo;
  Alcotest.(check bool) "reset accepts seq 0" true
    (Rpc.Stream.observe ooo w0 = `Chunk)

(* --- generated service end to end ---------------------------------------- *)

module KS = Kv_msgs.Kv_service
module Srv = KS.Server (Kv_msgs.Getreq.In_place)

let keys_idx = Schema.Desc.field_index Kv_msgs.Getreq.desc "keys"
let vals_idx = Schema.Desc.field_index Kv_msgs.Getresp.desc "vals"

type rig = {
  engine : Sim.Engine.t;
  space : Mem.Addr_space.t;
  cli : Net.Endpoint.t;
  srv_ep : Net.Endpoint.t;
  srv : Srv.server;
}

(* Loopback rig: client endpoint 1, server endpoint 2 running the
   generated skeleton (handlers registered by each test), responses sent
   back through the real egress path. [on_frame] lets a test observe the
   raw delivered request frame before the skeleton serves it. *)
let make_rig ?(serve = true) ?on_frame () =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let cpu = Memmodel.Cpu.none in
  let cli = Net.Endpoint.create ~cpu fabric registry ~id:1 in
  let srv_ep = Net.Endpoint.create ~cpu fabric registry ~id:2 in
  let srv =
    Srv.server
      ~send:(fun ~dst resp ->
        Cornflakes.Send.send_object Cornflakes.Config.default srv_ep ~dst resp)
      (Kv_msgs.Getreq.reader ~cpu ())
  in
  Net.Endpoint.set_rx srv_ep (fun ~src buf ->
      (match on_frame with None -> () | Some f -> f buf);
      if serve && not (Srv.serve srv ~src buf) then
        Alcotest.fail "a valid request frame was rejected";
      Mem.Pinned.Buf.decr_ref ~cpu ~site:"test_rpc.srv_done" buf);
  { engine; space; cli; srv_ep; srv }

let attach_client ?engine rig =
  let c = KS.client ?engine (Net.Endpoint.transport rig.cli) in
  Net.Endpoint.set_rx rig.cli (fun ~src:_ buf ->
      KS.deliver c buf;
      Mem.Pinned.Buf.decr_ref ~cpu:none ~site:"test_rpc.cli_done" buf);
  c

let echo_get rig =
  Srv.on_get rig.srv (fun ~src:_ r resp ->
      let n = Wire.Reader.count r keys_idx in
      for j = 0 to n - 1 do
        Wire.Dyn.append resp "vals"
          (Wire.Dyn.Payload
             (Wire.Payload.of_string rig.space
                (Wire.Reader.elem_string r keys_idx ~j)))
      done)

let req_of rig keys =
  let req = Kv_msgs.Getreq.create () in
  List.iter
    (fun k ->
      Kv_msgs.Getreq.add_keys_payload req (Wire.Payload.of_string rig.space k))
    keys;
  req

let resp_strings r =
  let n = Wire.Reader.count r vals_idx in
  List.init n (fun j -> Wire.Reader.elem_string r vals_idx ~j)

let test_unary_round_trip () =
  let rig = make_rig () in
  echo_get rig;
  let c = attach_client rig in
  let sent = [ "alpha"; ""; String.make 300 'k' ] in
  let got = ref None in
  let echoed = ref (-1) in
  let id =
    KS.call_get c ~dst:2 (req_of rig sent) ~on_reply:(fun r ->
        echoed := Int64.to_int (Wire.Reader.get_u64 r KS.resp_id);
        got := Some (resp_strings r))
  in
  Sim.Engine.run_all rig.engine;
  Alcotest.(check int) "echoed id is the call id" id !echoed;
  Alcotest.(check (option (list string))) "echoed keys" (Some sent) !got;
  Alcotest.(check int) "one call" 1 (Rpc.Client.calls c);
  Alcotest.(check int) "one reply" 1 (Rpc.Client.replies c);
  Alcotest.(check int) "none outstanding" 0 (Rpc.Client.outstanding c)

let test_unknown_method_id_echo () =
  (* No handler registered: the fallback row answers the bare id echo. *)
  let rig = make_rig () in
  let c = attach_client rig in
  let replied = ref None in
  ignore
    (KS.call_put c ~dst:2 (req_of rig [ "k" ]) ~on_reply:(fun r ->
         replied :=
           Some
             (if Wire.Reader.present r vals_idx then
                Wire.Reader.count r vals_idx
              else 0)));
  Sim.Engine.run_all rig.engine;
  Alcotest.(check (option int)) "empty echo" (Some 0) !replied

let test_deadline_abandon () =
  (* Server drops every request; the engine-clock deadline resolves the
     call deterministically — the unary reply callback never runs. *)
  let rig = make_rig ~serve:false () in
  let c = attach_client ~engine:rig.engine rig in
  let replied = ref false in
  ignore
    (KS.call_get c ~deadline_ms:2 ~dst:2 (req_of rig [ "k" ])
       ~on_reply:(fun _ -> replied := true));
  Sim.Engine.run_all rig.engine;
  Alcotest.(check bool) "no reply" false !replied;
  Alcotest.(check int) "abandoned" 1 (Rpc.Client.abandoned c);
  Alcotest.(check int) "none outstanding" 0 (Rpc.Client.outstanding c);
  Alcotest.(check int) "no replies" 0 (Rpc.Client.replies c)

let test_deadline_cancelled_on_reply () =
  (* No retry layer: a call answered before its deadline cancels the
     deadline timer, so nothing stays queued and the clock stops at the
     reply. *)
  let rig = make_rig () in
  echo_get rig;
  let c = attach_client ~engine:rig.engine rig in
  let replied = ref false in
  ignore
    (KS.call_get c ~deadline_ms:2 ~dst:2 (req_of rig [ "k" ])
       ~on_reply:(fun _ -> replied := true));
  Sim.Engine.run rig.engine ~until:1_000_000;
  Alcotest.(check bool) "replied" true !replied;
  Alcotest.(check int) "nothing queued" 0 (Sim.Engine.pending rig.engine);
  Sim.Engine.run_all rig.engine;
  Alcotest.(check int) "clock" 1_000_000 (Sim.Engine.now rig.engine);
  Alcotest.(check int) "not abandoned" 0 (Rpc.Client.abandoned c)

let test_orphan_reply () =
  (* A response whose id matches no pending call is counted, not raised. *)
  let rig = make_rig () in
  let c = attach_client rig in
  let resp = Wire.Dyn.create Kv_msgs.Getresp.desc in
  Wire.Dyn.set_int resp "id" 999L;
  Cornflakes.Send.send_object Cornflakes.Config.default rig.srv_ep ~dst:1 resp;
  Sim.Engine.run_all rig.engine;
  Alcotest.(check int) "orphans" 1 (Rpc.Client.orphans c);
  Alcotest.(check int) "no replies" 0 (Rpc.Client.replies c)

(* Streamed Scan: one chunk per request key, emitted through the
   generated [emit_scan] (seq word stamped per chunk, last bit on the
   final data chunk, no terminator frame). *)
let scan_echo rig =
  Srv.on_scan rig.srv (fun ~src r resp ->
      let id = Wire.Reader.get_u64 r KS.req_id in
      let cur = Rpc.Stream.cursor () in
      let n = Wire.Reader.count r keys_idx in
      for j = 0 to n - 1 do
        Wire.Dyn.append resp "vals"
          (Wire.Dyn.Payload
             (Wire.Payload.of_string rig.space
                (Wire.Reader.elem_string r keys_idx ~j)));
        Srv.emit_scan rig.srv ~dst:src ~id cur ~last:(j = n - 1)
      done)

let test_streamed_round_trip () =
  let rig = make_rig () in
  scan_echo rig;
  let c = attach_client rig in
  let sent = [ "one"; "two"; "three"; "four" ] in
  let chunks = ref [] in
  let done_ok = ref None in
  ignore
    (KS.call_scan c ~dst:2 (req_of rig sent)
       ~on_chunk:(fun r -> chunks := !chunks @ resp_strings r)
       ~on_done:(fun ~ok -> done_ok := Some ok));
  Sim.Engine.run_all rig.engine;
  Alcotest.(check (list string)) "reassembled in order" sent !chunks;
  Alcotest.(check (option bool)) "completed ok" (Some true) !done_ok;
  Alcotest.(check int) "chunk count" 4 (Rpc.Client.chunks c);
  Alcotest.(check int) "one reply" 1 (Rpc.Client.replies c);
  Alcotest.(check int) "none outstanding" 0 (Rpc.Client.outstanding c)

(* --- QCheck: stub encode -> skeleton decode round trip ------------------- *)

let key_list_arb =
  QCheck.(list_of_size Gen.(1 -- 6) (string_of_size Gen.(0 -- 64)))

(* Unary: the folded stub encode must decode byte-identically through
   BOTH receive paths — the skeleton's validate-once in-place reader and
   a [Wire.Dyn] parse of the same delivered frame — and the echoed
   response must reproduce every key byte-for-byte. *)
let qcheck_unary_round_trip =
  QCheck.Test.make ~name:"stub encode -> skeleton decode round trip"
    ~count:30 key_list_arb (fun keys ->
      let dyn_keys = ref None in
      let rig =
        make_rig
          ~on_frame:(fun buf ->
            let d =
              Cornflakes.Format_.deserialize ~cpu:none Kv_msgs.schema
                Kv_msgs.Getreq.desc buf
            in
            dyn_keys :=
              Some
                (List.filter_map
                   (function
                     | Wire.Dyn.Payload p ->
                         Some (Mem.View.to_string (Wire.Payload.view p))
                     | _ -> None)
                   (Wire.Dyn.get_list d "keys"));
            Wire.Dyn.release ~cpu:none d)
          ()
      in
      echo_get rig;
      let c = attach_client rig in
      let got = ref None in
      ignore
        (KS.call_get c ~dst:2 (req_of rig keys) ~on_reply:(fun r ->
             got := Some (resp_strings r)));
      Sim.Engine.run_all rig.engine;
      !dyn_keys = Some keys && !got = Some keys)

(* Streamed: every chunk of a scan reassembles to the exact request
   bytes, in order, through the generated seq-word protocol. *)
let qcheck_streamed_round_trip =
  QCheck.Test.make ~name:"streamed responses reassemble byte-identically"
    ~count:15 key_list_arb (fun keys ->
      let rig = make_rig () in
      scan_echo rig;
      let c = attach_client rig in
      let chunks = ref [] in
      let done_ok = ref None in
      ignore
        (KS.call_scan c ~dst:2 (req_of rig keys)
           ~on_chunk:(fun r -> chunks := !chunks @ resp_strings r)
           ~on_done:(fun ~ok -> done_ok := Some ok));
      Sim.Engine.run_all rig.engine;
      !chunks = keys && !done_ok = Some true
      && Rpc.Client.chunks c = List.length keys)

(* Allocation budget of the whole request path: UDP round trips through
   the generated stub, [Net.Reliab], both NICs and the fabric, with an
   in-place server handler. Words per call are counted after a warm-up
   has grown every pool, ring and heap to its steady size; the ceiling
   (20 measured, 16 of them four 4-word pinned-buffer handles, plus about
   10%)
   catches any per-call closure or table entry that creeps back in. *)
let words_per_call_ceiling = 22.0

let test_round_trip_alloc_budget () =
  let rig = make_rig () in
  Srv.on_get rig.srv (fun ~src:_ r _resp ->
      ignore (Wire.Reader.count r keys_idx));
  let reliab =
    Net.Reliab.create rig.engine ~rng:(Sim.Rng.create ~seed:3)
  in
  let c = KS.client ~engine:rig.engine ~reliab (Net.Endpoint.transport rig.cli) in
  Net.Endpoint.set_rx rig.cli (fun ~src:_ buf ->
      KS.deliver c buf;
      Mem.Pinned.Buf.decr_ref ~cpu:none ~site:"test_rpc.cli_done" buf);
  let req = req_of rig [ "twitter:user:0000000000001:profile-01"; "k2" ] in
  let on_reply (_ : Wire.Reader.t) = () in
  let round_trip () =
    ignore (KS.call_get c ~dst:2 req ~on_reply);
    Sim.Engine.run_all rig.engine;
    Mem.Arena.reset (Net.Endpoint.arena rig.cli);
    Mem.Arena.reset (Net.Endpoint.arena rig.srv_ep)
  in
  for _ = 1 to 500 do
    round_trip ()
  done;
  let calls = 2000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    round_trip ()
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
  Alcotest.(check int) "every call answered" (500 + calls) (Rpc.Client.replies c);
  Alcotest.(check int) "no retries" 0 (Net.Reliab.retries reliab);
  if per_call > words_per_call_ceiling then
    Alcotest.failf "%.1f minor words per call, ceiling %.0f" per_call
      words_per_call_ceiling

(* The call slot holds the request until the call resolves: when the
   first call's frame is lost, the retry layer's retransmission re-sends
   that call's own request, though a second call went out meanwhile. *)
let test_retransmission_resends_own_request () =
  let served = ref None in
  let lost = ref false in
  let rig =
    make_rig ~serve:false
      ~on_frame:(fun buf ->
        if not !lost then lost := true
        else Option.iter (fun srv -> ignore (Srv.serve srv ~src:1 buf)) !served)
      ()
  in
  served := Some rig.srv;
  echo_get rig;
  let reliab = Net.Reliab.create rig.engine ~rng:(Sim.Rng.create ~seed:5) in
  let c = KS.client ~engine:rig.engine ~reliab (Net.Endpoint.transport rig.cli) in
  Net.Endpoint.set_rx rig.cli (fun ~src:_ buf ->
      KS.deliver c buf;
      Mem.Pinned.Buf.decr_ref ~cpu:none ~site:"test_rpc.cli_done" buf);
  let replies = ref [] in
  let call name keys =
    ignore
      (KS.call_get c ~dst:2 (req_of rig keys) ~on_reply:(fun r ->
           replies := (name, resp_strings r) :: !replies))
  in
  call "first" [ "a1"; "a2" ];
  call "second" [ "b1" ];
  Sim.Engine.run_all rig.engine;
  Alcotest.(check int) "one retransmission" 1 (Net.Reliab.retries reliab);
  Alcotest.(check (list (pair string (list string))))
    "each reply echoes its own call's keys"
    [ ("first", [ "a1"; "a2" ]); ("second", [ "b1" ]) ]
    (List.sort compare !replies)

let suite =
  [
    Alcotest.test_case "table dispatch" `Quick test_table_dispatch;
    Alcotest.test_case "deadline clock" `Quick test_deadline_clock;
    Alcotest.test_case "stream seq word" `Quick test_stream_word;
    Alcotest.test_case "stream cursor + collector" `Quick
      test_stream_cursor_collector;
    Alcotest.test_case "generated unary round trip" `Quick
      test_unary_round_trip;
    Alcotest.test_case "unhandled method answers id echo" `Quick
      test_unknown_method_id_echo;
    Alcotest.test_case "deadline cancelled on reply" `Quick
      test_deadline_cancelled_on_reply;
    Alcotest.test_case "deadline abandons deterministically" `Quick
      test_deadline_abandon;
    Alcotest.test_case "orphan reply counted" `Quick test_orphan_reply;
    Alcotest.test_case "generated streamed round trip" `Quick
      test_streamed_round_trip;
    Alcotest.test_case "round trip allocation budget" `Quick
      test_round_trip_alloc_budget;
    Alcotest.test_case "retransmission re-sends the call's own request" `Quick
      test_retransmission_resends_own_request;
    QCheck_alcotest.to_alcotest qcheck_unary_round_trip;
    QCheck_alcotest.to_alcotest qcheck_streamed_round_trip;
  ]

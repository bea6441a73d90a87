(* RESP protocol and mini-Redis server tests. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

let space () = Mem.Addr_space.create ()

let test_resp_roundtrip_values () =
  let sp = space () in
  let cases =
    [
      Mini_redis.Resp.Simple "OK";
      Mini_redis.Resp.Error "ERR boom";
      Mini_redis.Resp.Int 42;
      Mini_redis.Resp.Int (-7);
      Mini_redis.Resp.Null;
      Mini_redis.Resp.Bulk (Mem.View.of_string sp "hello");
      Mini_redis.Resp.Bulk (Mem.View.of_string sp "");
      Mini_redis.Resp.Array [];
      Mini_redis.Resp.Array
        [
          Mini_redis.Resp.Bulk (Mem.View.of_string sp "GET");
          Mini_redis.Resp.Bulk (Mem.View.of_string sp "key");
          Mini_redis.Resp.Int 3;
          Mini_redis.Resp.Null;
          Mini_redis.Resp.Array [ Mini_redis.Resp.Simple "inner" ];
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Mini_redis.Resp.to_string sp v in
      Alcotest.(check int) "encoded_len" (String.length s)
        (Mini_redis.Resp.encoded_len v);
      let back = Mini_redis.Resp.decode ~cpu:none (Mem.View.of_string sp s) in
      if not (Mini_redis.Resp.equal v back) then
        Alcotest.failf "roundtrip: %a vs %a" Mini_redis.Resp.pp v
          Mini_redis.Resp.pp back)
    cases

let test_resp_wire_format_exact () =
  let sp = space () in
  Alcotest.(check string) "simple" "+OK\r\n"
    (Mini_redis.Resp.to_string sp (Mini_redis.Resp.Simple "OK"));
  Alcotest.(check string) "bulk" "$5\r\nhello\r\n"
    (Mini_redis.Resp.to_string sp
       (Mini_redis.Resp.Bulk (Mem.View.of_string sp "hello")));
  Alcotest.(check string) "null" "$-1\r\n"
    (Mini_redis.Resp.to_string sp Mini_redis.Resp.Null);
  Alcotest.(check string) "array" "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"
    (Mini_redis.Resp.to_string sp
       (Mini_redis.Resp.command sp [ "GET"; "k" ]))

let test_resp_rejects_malformed () =
  let sp = space () in
  List.iter
    (fun s ->
      match Mini_redis.Resp.decode ~cpu:none (Mem.View.of_string sp s) with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Mini_redis.Resp.Protocol_error _ -> ())
    [ ""; "x"; "$5\r\nhi\r\n"; "*2\r\n+a\r\n"; ":abc\r\n"; "+no-term"; "$3\r\nabcXY" ]

let redis_rig mode =
  let rig = Apps.Rig.create ~n_clients:2 () in
  let wl = Workload.Ycsb.make ~n_keys:256 ~entries:2 ~entry_size:2048 () in
  let srv = Mini_redis.Server.install rig mode ~workload:wl ~list_values:true in
  (rig, srv)

let one_command rig reply_check cmd =
  let client = List.hd rig.Apps.Rig.clients in
  let got = ref None in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      got := Some (Mem.View.to_string (Mem.Pinned.Buf.view buf));
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  Net.Transport.send_string client ~dst:Apps.Rig.server_id
    (Mini_redis.Resp.to_string rig.Apps.Rig.space
       (Mini_redis.Resp.command rig.Apps.Rig.space cmd));
  Sim.Engine.run_all rig.Apps.Rig.engine;
  match !got with
  | None -> Alcotest.fail "no reply"
  | Some s -> reply_check s

let key1 = Printf.sprintf "user%026d" 1

let test_native_lrange () =
  let rig, _srv = redis_rig Mini_redis.Server.Native in
  one_command rig
    (fun s ->
      let v =
        Mini_redis.Resp.decode ~cpu:none (Mem.View.of_string rig.Apps.Rig.space s)
      in
      match v with
      | Mini_redis.Resp.Array [ Mini_redis.Resp.Bulk a; Mini_redis.Resp.Bulk b ]
        ->
          Alcotest.(check int) "elem size" 2048 a.Mem.View.len;
          Alcotest.(check int) "elem size" 2048 b.Mem.View.len
      | _ -> Alcotest.fail "expected 2-element array")
    [ "LRANGE"; key1; "0"; "-1" ]

let test_native_get_and_set () =
  let rig, srv = redis_rig Mini_redis.Server.Native in
  one_command rig
    (fun s -> Alcotest.(check string) "set ok" "+OK\r\n" s)
    [ "SET"; "newkey"; "fresh-value" ];
  (match Kvstore.Store.get (Mini_redis.Server.store srv) ~key:"newkey" with
  | Some v -> Alcotest.(check int) "stored" 11 (Kvstore.Store.value_len v)
  | None -> Alcotest.fail "SET did not store");
  one_command rig
    (fun s -> Alcotest.(check string) "get" "$11\r\nfresh-value\r\n" s)
    [ "GET"; "newkey" ]

let test_native_mget_with_missing () =
  let rig, _srv = redis_rig Mini_redis.Server.Native in
  one_command rig
    (fun s ->
      let v =
        Mini_redis.Resp.decode ~cpu:none (Mem.View.of_string rig.Apps.Rig.space s)
      in
      match v with
      | Mini_redis.Resp.Array [ Mini_redis.Resp.Bulk _; Mini_redis.Resp.Null ] ->
          ()
      | _ -> Alcotest.failf "unexpected reply %s" (String.escaped s))
    [ "MGET"; key1; "no-such-key" ]

let test_unknown_command_errors () =
  let rig, _srv = redis_rig Mini_redis.Server.Native in
  one_command rig
    (fun s ->
      Alcotest.(check bool) "error reply" true (String.length s > 0 && s.[0] = '-'))
    [ "FLUSHALL" ]

let test_cornflakes_mode_replies () =
  let rig, _srv =
    redis_rig (Mini_redis.Server.Cornflakes_backed Cornflakes.Config.default)
  in
  let client = List.hd rig.Apps.Rig.clients in
  let got = ref None in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      let msg =
        Cornflakes.Send.deserialize ~cpu:none Apps.Proto.schema Apps.Proto.resp buf
      in
      got :=
        Some
          (List.filter_map
             (fun v ->
               match v with
               | Wire.Dyn.Payload p -> Some (Wire.Payload.len p)
               | _ -> None)
             (Wire.Dyn.get_list msg "vals"));
      Wire.Dyn.release ~cpu:none msg;
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  Net.Transport.send_string client ~dst:Apps.Rig.server_id
    (Mini_redis.Resp.to_string rig.Apps.Rig.space
       (Mini_redis.Resp.command rig.Apps.Rig.space [ "LRANGE"; key1; "0"; "-1" ]));
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Alcotest.(check (option (list int))) "two 2048B values" (Some [ 2048; 2048 ])
    !got

let test_both_modes_sustain_load () =
  List.iter
    (fun mode ->
      let rig, srv = redis_rig mode in
      let send ep ~dst ~id = Mini_redis.Server.send_next srv ep ~dst ~id in
      let r =
        Loadgen.Driver.closed_loop rig.Apps.Rig.engine
          ~clients:rig.Apps.Rig.clients ~server:Apps.Rig.server_id
          ~outstanding:2 ~duration_ns:2_000_000 ~warmup_ns:0
          ~rng:rig.Apps.Rig.rng ~send ~parse_id:None
      in
      Alcotest.(check bool)
        (Mini_redis.Server.mode_name mode ^ " serves")
        true
        (r.Loadgen.Driver.completed > 100))
    [
      Mini_redis.Server.Native;
      Mini_redis.Server.Cornflakes_backed Cornflakes.Config.default;
    ]

let qcheck_resp_roundtrip =
  let rec gen_value sp rng depth =
    match if depth > 2 then Sim.Rng.int rng 4 else Sim.Rng.int rng 6 with
    | 0 -> Mini_redis.Resp.Simple "status"
    | 1 -> Mini_redis.Resp.Int (Sim.Rng.int rng 100000 - 50000)
    | 2 -> Mini_redis.Resp.Null
    | 3 ->
        Mini_redis.Resp.Bulk
          (Mem.View.of_string sp (String.make (Sim.Rng.int rng 300) 'b'))
    | 4 -> Mini_redis.Resp.Error "ERR x"
    | _ ->
        Mini_redis.Resp.Array
          (List.init (Sim.Rng.int rng 5) (fun _ -> gen_value sp rng (depth + 1)))
  in
  QCheck.Test.make ~name:"resp random roundtrip" ~count:200 QCheck.small_nat
    (fun seed ->
      let sp = space () in
      let rng = Sim.Rng.create ~seed:(seed + 77) in
      let v = gen_value sp rng 0 in
      let s = Mini_redis.Resp.to_string sp v in
      String.length s = Mini_redis.Resp.encoded_len v
      && Mini_redis.Resp.equal v
           (Mini_redis.Resp.decode ~cpu:none (Mem.View.of_string sp s)))

let suite =
  [
    Alcotest.test_case "resp roundtrip values" `Quick test_resp_roundtrip_values;
    Alcotest.test_case "resp exact wire format" `Quick test_resp_wire_format_exact;
    Alcotest.test_case "resp rejects malformed" `Quick test_resp_rejects_malformed;
    Alcotest.test_case "native lrange" `Quick test_native_lrange;
    Alcotest.test_case "native get/set" `Quick test_native_get_and_set;
    Alcotest.test_case "native mget with missing" `Quick test_native_mget_with_missing;
    Alcotest.test_case "unknown command errors" `Quick test_unknown_command_errors;
    Alcotest.test_case "cornflakes-backed replies" `Quick test_cornflakes_mode_replies;
    Alcotest.test_case "both modes sustain load" `Slow test_both_modes_sustain_load;
    QCheck_alcotest.to_alcotest qcheck_resp_roundtrip;
  ]

let test_del_exists_strlen_ping () =
  let rig, _srv = redis_rig Mini_redis.Server.Native in
  one_command rig
    (fun s -> Alcotest.(check string) "ping" "+PONG\r\n" s)
    [ "PING" ];
  one_command rig
    (fun s -> Alcotest.(check string) "exists 1" ":1\r\n" s)
    [ "EXISTS"; key1; "no-such" ];
  one_command rig
    (fun s -> Alcotest.(check string) "strlen" ":4096\r\n" s)
    [ "STRLEN"; key1 ];
  one_command rig
    (fun s -> Alcotest.(check string) "del 1" ":1\r\n" s)
    [ "DEL"; key1; "no-such" ];
  one_command rig
    (fun s -> Alcotest.(check string) "gone" ":0\r\n" s)
    [ "EXISTS"; key1 ];
  one_command rig
    (fun s -> Alcotest.(check string) "get nil" "$-1\r\n" s)
    [ "GET"; key1 ]

let suite = suite @ [
  Alcotest.test_case "del/exists/strlen/ping" `Quick test_del_exists_strlen_ping;
]

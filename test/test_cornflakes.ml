(* End-to-end tests of the Cornflakes library: hybrid CFPtr construction,
   send_object over the simulated stack, zero-copy safety, SGE-limit
   demotion, and both send paths. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

let schema = Test_format.schema

let everything = Test_format.everything

let default = Cornflakes.Config.default

let make_value pool s =
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:(String.length s) in
  Mem.Pinned.Buf.fill ~cpu:none buf s;
  buf

let test_cf_ptr_threshold () =
  let env = Test_env.make () in
  let pool = Test_env.data_pool env in
  let small = make_value pool (String.make 100 's') in
  let large = make_value pool (String.make 1024 'l') in
  (* Small pinned value: copied, reference dropped. *)
  (match
     Cornflakes.Cf_ptr.make ~cpu:none default env.Test_env.b
       (Mem.Pinned.Buf.view small)
   with
  | Wire.Payload.Copied _ -> ()
  | _ -> Alcotest.fail "small field should be copied");
  Alcotest.(check int) "small ref untouched" 1 (Mem.Pinned.Buf.refcount small);
  (* Large pinned value: zero-copied with a new reference. *)
  (match
     Cornflakes.Cf_ptr.make ~cpu:none default env.Test_env.b
       (Mem.Pinned.Buf.view large)
   with
  | Wire.Payload.Zero_copy b ->
      Alcotest.(check int) "ref taken" 2 (Mem.Pinned.Buf.refcount large);
      Mem.Pinned.Buf.decr_ref ~cpu:none b
  | _ -> Alcotest.fail "large field should be zero-copy")

let test_cf_ptr_memory_transparency () =
  let env = Test_env.make () in
  (* Large but NOT in pinned memory: must fall back to copy. *)
  let v = Mem.View.of_string env.Test_env.space (String.make 2048 'u') in
  match Cornflakes.Cf_ptr.make ~cpu:none default env.Test_env.b v with
  | Wire.Payload.Copied c ->
      Alcotest.(check string) "copy is faithful" (Mem.View.to_string v)
        (Mem.View.to_string c)
  | _ -> Alcotest.fail "unpinned memory must be copied"

let test_cf_ptr_all_copy_config () =
  let env = Test_env.make () in
  let pool = Test_env.data_pool env in
  let large = make_value pool (String.make 2048 'l') in
  match
    Cornflakes.Cf_ptr.make ~cpu:none Cornflakes.Config.all_copy env.Test_env.b
      (Mem.Pinned.Buf.view large)
  with
  | Wire.Payload.Copied _ -> ()
  | _ -> Alcotest.fail "all-copy config must copy"

let test_cf_ptr_all_zero_copy_config () =
  let env = Test_env.make () in
  let pool = Test_env.data_pool env in
  let tiny = make_value pool "xy" in
  match
    Cornflakes.Cf_ptr.make ~cpu:none Cornflakes.Config.all_zero_copy env.Test_env.b
      (Mem.Pinned.Buf.view tiny)
  with
  | Wire.Payload.Zero_copy b -> Mem.Pinned.Buf.decr_ref ~cpu:none b
  | _ -> Alcotest.fail "all-zero-copy config must scatter-gather"

let hybrid_message env pool =
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set_int msg "id" 99L;
  (* One field below the threshold (copied), two above (zero-copy). *)
  let small = make_value pool (String.make 64 'a') in
  let big1 = make_value pool (String.make 1024 'b') in
  let big2 = make_value pool (String.make 600 'c') in
  List.iter
    (fun buf ->
      let p =
        Cornflakes.Cf_ptr.make ~cpu:none default env.Test_env.b (Mem.Pinned.Buf.view buf)
      in
      Wire.Dyn.append msg "tags" (Wire.Dyn.Payload p))
    [ small; big1; big2 ];
  (msg, [ small; big1; big2 ])

let roundtrip_config env config msg =
  Cornflakes.Send.send_object config env.Test_env.b ~dst:1 msg;
  let got = ref None in
  Net.Endpoint.set_rx env.Test_env.a (fun ~src:_ buf ->
      got := Some buf);
  Sim.Engine.run_all env.Test_env.engine;
  match !got with
  | None -> Alcotest.fail "no response delivered"
  | Some buf ->
      let back = Cornflakes.Send.deserialize ~cpu:none schema everything buf in
      (buf, back)

let test_send_object_roundtrip () =
  let env = Test_env.make () in
  let pool = Test_env.data_pool env in
  let msg, _values = hybrid_message env pool in
  let plan = Cornflakes.Format_.measure msg in
  Alcotest.(check int) "two zc entries" 3 (Cornflakes.Format_.num_entries plan);
  let buf, back = roundtrip_config env default msg in
  if not (Wire.Dyn.equal msg back) then
    Alcotest.failf "mismatch:@.%a@.vs@.%a" Wire.Dyn.pp msg Wire.Dyn.pp back;
  Wire.Dyn.release ~cpu:none back;
  Mem.Pinned.Buf.decr_ref ~cpu:none buf

let test_send_object_two_phase_path () =
  let env = Test_env.make () in
  let pool = Test_env.data_pool env in
  let msg, _ = hybrid_message env pool in
  let config = { default with Cornflakes.Config.serialize_and_send = false } in
  let buf, back = roundtrip_config env config msg in
  if not (Wire.Dyn.equal msg back) then Alcotest.fail "two-phase mismatch";
  Wire.Dyn.release ~cpu:none back;
  Mem.Pinned.Buf.decr_ref ~cpu:none buf

let test_zero_copy_safety_through_completion () =
  let env = Test_env.make () in
  let pool = Test_env.data_pool env in
  let value = make_value pool (String.make 2048 'v') in
  Mem.Pinned.Buf.incr_ref ~cpu:none value;
  (* app keeps a handle *)
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set_payload msg "name"
    (Cornflakes.Cf_ptr.make ~cpu:none default env.Test_env.b (Mem.Pinned.Buf.view value));
  Alcotest.(check int) "refs before send" 3 (Mem.Pinned.Buf.refcount value);
  Cornflakes.Send.send_object default env.Test_env.b ~dst:1 msg;
  (* The stack still holds the reference until the NIC completes. *)
  Alcotest.(check int) "held in flight" 3 (Mem.Pinned.Buf.refcount value);
  Sim.Engine.run_all env.Test_env.engine;
  Alcotest.(check int) "released after completion" 2
    (Mem.Pinned.Buf.refcount value)

let test_sge_limit_demotes_smallest () =
  let config =
    {
      Net.Endpoint.default_config with
      Net.Endpoint.nic_model = Nic.Model.intel_e810;
    }
  in
  let env = Test_env.make ~config () in
  let pool =
    Test_env.data_pool
      ~classes:[ (64, 256); (256, 256); (1024, 128); (4096, 64) ]
      env
  in
  let msg = Wire.Dyn.create everything in
  (* 10 zero-copy-eligible fields; e810 allows 8 SGEs -> 7 zc + staging. *)
  let sizes = [ 520; 530; 540; 550; 560; 570; 580; 590; 600; 610 ] in
  List.iter
    (fun n ->
      let buf = make_value pool (String.make n 'z') in
      Wire.Dyn.append msg "tags"
        (Wire.Dyn.Payload
           (Cornflakes.Cf_ptr.make ~cpu:none default env.Test_env.b
              (Mem.Pinned.Buf.view buf))))
    sizes;
  let before = Cornflakes.Format_.measure msg in
  Alcotest.(check int) "10 zc before" 10 (Cornflakes.Format_.zc_count before);
  let buf, back = roundtrip_config env default msg in
  (* After send, the message was demoted in place to fit the NIC. *)
  let after = Cornflakes.Format_.measure msg in
  Alcotest.(check int) "7 zc after demotion" 7
    (Cornflakes.Format_.zc_count after);
  (* The three smallest (520, 530, 540) were demoted. *)
  let zc_lens =
    List.map Mem.Pinned.Buf.len (Cornflakes.Format_.zc_bufs after)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "largest kept"
    [ 550; 560; 570; 580; 590; 600; 610 ]
    zc_lens;
  if not (Wire.Dyn.equal msg back) then Alcotest.fail "demoted roundtrip";
  Wire.Dyn.release ~cpu:none back;
  Mem.Pinned.Buf.decr_ref ~cpu:none buf

let test_demote_tie_break_at_cutoff () =
  (* Equal-length payloads exactly at the demotion cutoff: the keep set is
     every payload strictly larger, plus the first [keep - strictly_larger]
     cutoff-length payloads in traversal order — never more, never fewer. *)
  let config =
    {
      Net.Endpoint.default_config with
      Net.Endpoint.nic_model = Nic.Model.intel_e810;
    }
  in
  let env = Test_env.make ~config () in
  let pool =
    Test_env.data_pool
      ~classes:[ (64, 256); (256, 256); (1024, 128); (4096, 64) ]
      env
  in
  let msg = Wire.Dyn.create everything in
  (* e810: 8 SGEs -> 7 zc + staging. Three strictly-larger 1024 B payloads
     plus seven payloads of exactly 600 B: the cutoff is 600, so the first
     four 600 B payloads (traversal order) stay zero-copy and the last
     three are demoted to copies. *)
  let sizes = [ 1024; 1024; 1024; 600; 600; 600; 600; 600; 600; 600 ] in
  List.iter
    (fun n ->
      let buf = make_value pool (String.make n 't') in
      Wire.Dyn.append msg "tags"
        (Wire.Dyn.Payload
           (Cornflakes.Cf_ptr.make ~cpu:none default env.Test_env.b
              (Mem.Pinned.Buf.view buf))))
    sizes;
  let before = Cornflakes.Format_.measure msg in
  Alcotest.(check int) "10 zc before" 10 (Cornflakes.Format_.zc_count before);
  let buf, back = roundtrip_config env default msg in
  let kinds =
    Wire.Dyn.fold_payloads msg ~init:[] ~f:(fun acc p ->
        (match p with
        | Wire.Payload.Zero_copy _ -> 'z'
        | Wire.Payload.Copied _ | Wire.Payload.Literal _ -> 'c')
        :: acc)
    |> List.rev |> List.to_seq |> String.of_seq
  in
  Alcotest.(check string)
    "first four at-cutoff payloads kept, last three demoted" "zzzzzzzccc"
    kinds;
  if not (Wire.Dyn.equal msg back) then Alcotest.fail "tie-break roundtrip";
  Wire.Dyn.release ~cpu:none back;
  Mem.Pinned.Buf.decr_ref ~cpu:none buf

let test_message_too_large_rejected () =
  let env = Test_env.make () in
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set_payload msg "name"
    (Wire.Payload.of_string env.Test_env.space (String.make 9500 'x'));
  match Cornflakes.Send.send_object default env.Test_env.b ~dst:1 msg with
  | () -> Alcotest.fail "expected Message_too_large"
  | exception Cornflakes.Send.Message_too_large _ -> ()

let test_echo_reserialize_zero_copy () =
  (* The paper's echo server: deserialize a request and reserialize it.
     Fields of the request live in the (pinned) RX buffer, so CFPtr
     recovers them and the echo is zero-copy. *)
  let env = Test_env.make () in
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set_payload msg "name"
    (Wire.Payload.of_string env.Test_env.space (String.make 2048 'e'));
  Cornflakes.Send.send_object default env.Test_env.a ~dst:2 msg;
  let _src, req_buf = Test_env.catch env in
  let req = Cornflakes.Send.deserialize ~cpu:none schema everything req_buf in
  (* Rebuild a response reusing the request's field bytes. *)
  let resp = Wire.Dyn.create everything in
  (match Wire.Dyn.get_payload req "name" with
  | Some p ->
      let v = Wire.Payload.view p in
      let p' = Cornflakes.Cf_ptr.make ~cpu:none default env.Test_env.b v in
      Alcotest.(check bool) "echo reuses rx buffer zero-copy" true
        (Wire.Payload.is_zero_copy p');
      Wire.Dyn.set_payload resp "name" p'
  | None -> Alcotest.fail "missing field");
  let got = ref None in
  Net.Endpoint.set_rx env.Test_env.a (fun ~src:_ buf -> got := Some buf);
  Cornflakes.Send.send_object default env.Test_env.b ~dst:1 resp;
  Wire.Dyn.release ~cpu:none req;
  Mem.Pinned.Buf.decr_ref ~cpu:none req_buf;
  Sim.Engine.run_all env.Test_env.engine;
  match !got with
  | None -> Alcotest.fail "no echo"
  | Some buf ->
      let back = Cornflakes.Send.deserialize ~cpu:none schema everything buf in
      (match Wire.Dyn.get_payload back "name" with
      | Some p ->
          Alcotest.(check string) "payload intact" (String.make 2048 'e')
            (Wire.Payload.to_string p)
      | None -> Alcotest.fail "missing echoed field");
      Wire.Dyn.release ~cpu:none back;
      Mem.Pinned.Buf.decr_ref ~cpu:none buf

let test_hybrid_cheaper_than_forced_paths () =
  (* Sanity check on the cost model: for a mixed message, the hybrid
     config's CPU cost is at most that of all-copy and all-zero-copy. *)
  let run config =
    let params = Memmodel.Params.default in
    let cpu = Memmodel.Cpu.create params in
    let env = Test_env.make ~cpu_b:cpu () in
    let pool = Test_env.data_pool env in
    (* Mixed: small fields + large fields. *)
    let msg = Wire.Dyn.create everything in
    List.iter
      (fun n ->
        let buf = make_value pool (String.make n 'm') in
        Wire.Dyn.append msg "tags"
          (Wire.Dyn.Payload
             (Cornflakes.Cf_ptr.make ~cpu config env.Test_env.b
                (Mem.Pinned.Buf.view buf))))
      [ 32; 64; 2048; 4000 ];
    Cornflakes.Send.send_object config env.Test_env.b ~dst:1 msg;
    Sim.Engine.run_all env.Test_env.engine;
    Memmodel.Cpu.cycles cpu
  in
  let hybrid = run Cornflakes.Config.default in
  let all_copy = run Cornflakes.Config.all_copy in
  let all_zc = run Cornflakes.Config.all_zero_copy in
  if hybrid > all_copy +. 1e-6 then
    Alcotest.failf "hybrid %.0f worse than all-copy %.0f" hybrid all_copy;
  if hybrid > all_zc +. 1e-6 then
    Alcotest.failf "hybrid %.0f worse than all-zc %.0f" hybrid all_zc

let suite =
  [
    Alcotest.test_case "cf_ptr threshold" `Quick test_cf_ptr_threshold;
    Alcotest.test_case "cf_ptr memory transparency" `Quick
      test_cf_ptr_memory_transparency;
    Alcotest.test_case "cf_ptr all-copy config" `Quick test_cf_ptr_all_copy_config;
    Alcotest.test_case "cf_ptr all-zc config" `Quick
      test_cf_ptr_all_zero_copy_config;
    Alcotest.test_case "send_object roundtrip" `Quick test_send_object_roundtrip;
    Alcotest.test_case "two-phase send path" `Quick test_send_object_two_phase_path;
    Alcotest.test_case "zero-copy safety (completion)" `Quick
      test_zero_copy_safety_through_completion;
    Alcotest.test_case "sge limit demotion" `Quick test_sge_limit_demotes_smallest;
    Alcotest.test_case "demotion tie-break at cutoff" `Quick
      test_demote_tie_break_at_cutoff;
    Alcotest.test_case "message too large" `Quick test_message_too_large_rejected;
    Alcotest.test_case "echo reserialize zero-copy" `Quick
      test_echo_reserialize_zero_copy;
    Alcotest.test_case "hybrid never worse" `Quick
      test_hybrid_cheaper_than_forced_paths;
  ]

(* The paper's Listing 2 API veneer. *)
let test_network_api_listing2 () =
  let env = Test_env.make () in
  let pool = Test_env.data_pool env in
  let net_b = Cornflakes.Network_api.attach env.Test_env.b ~data_pool:pool in
  (* alloc: a DMA-safe refcounted buffer. *)
  let value = Cornflakes.Network_api.alloc net_b ~size:1024 in
  Mem.Pinned.Buf.fill ~cpu:none value (String.make 1024 'n');
  (* recover_ptr: finds it again from a raw window, taking a reference. *)
  (match
     Cornflakes.Network_api.recover_ptr net_b (Mem.Pinned.Buf.view value)
   with
  | Some r ->
      Alcotest.(check int) "recovered ref" 2 (Mem.Pinned.Buf.refcount value);
      Mem.Pinned.Buf.decr_ref ~cpu:none r
  | None -> Alcotest.fail "recover_ptr failed");
  (* send_object + recv_packet roundtrip (b -> a). *)
  let net_a =
    Cornflakes.Network_api.attach env.Test_env.a ~data_pool:pool
  in
  Alcotest.(check bool) "inbox empty" true
    (Cornflakes.Network_api.recv_packet net_a = None);
  let msg = Wire.Dyn.create Test_format.everything in
  Wire.Dyn.set_int msg "id" 2L;
  Wire.Dyn.set_payload msg "name"
    (Cornflakes.Network_api.cf_ptr net_b (Mem.Pinned.Buf.view value));
  Cornflakes.Network_api.send_object net_b ~dst:1 msg;
  Sim.Engine.run_all env.Test_env.engine;
  match Cornflakes.Network_api.recv_packet net_a with
  | Some buf ->
      let back =
        Cornflakes.Send.deserialize ~cpu:none Test_format.schema Test_format.everything
          buf
      in
      Alcotest.(check (option int64)) "id" (Some 2L) (Wire.Dyn.get_int back "id");
      Wire.Dyn.release ~cpu:none back;
      Mem.Pinned.Buf.decr_ref ~cpu:none buf
  | None -> Alcotest.fail "no packet in inbox"

let suite = suite @ [
  Alcotest.test_case "Listing-2 network API" `Quick test_network_api_listing2;
]

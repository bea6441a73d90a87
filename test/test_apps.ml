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
          let msg = Test_env.decode backend client Apps.Proto.resp buf in
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
      let msg = Test_env.decode backend client Apps.Proto.resp buf in
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
    ("get_index out of range", [ Get_index { key = "vector"; index = -1 } ], []);
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
  | Workload.Spec.Get_index { key; index } -> (
      match List.filteri (fun i _ -> i = index) (bufs key) with
      | [ b ] -> [ b ]
      | _ -> [])
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
      let msg = Test_env.decode backend client Apps.Proto.resp buf in
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

(* One handler per method serves every request shape identically through
   every decoder: in place for Cornflakes, parsed for each baseline. *)
let test_kv_rx_cases () =
  List.iter
    (fun transport ->
      List.iter
        (fun backend -> List.iter (run_rx_case ~transport backend) rx_cases)
        Apps.Backend.all)
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

(* A meter's [Deser] total. *)
let deser cpu = List.assoc Memmodel.Cpu.Deser (Memmodel.Cpu.breakdown cpu)

(* The Cornflakes echo server reads each request where it lies: its Deser
   charge for one request equals one [Wire.Reader.validate] of that frame,
   plus the in-place reads of the id slot and of each element slot, on a
   fresh meter that holds the frame in its LLC as the NIC's DMA leaves it.
   There is no per-field parse call and no heap message. *)
let test_echo_reads_in_place () =
  let rig = Apps.Rig.create ~n_clients:2 ~transport:`Udp () in
  let a, b =
    match rig.Apps.Rig.clients with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "two clients"
  in
  let app =
    Apps.Echo_app.install rig (Apps.Echo_app.Lib (Apps.Backend.cornflakes ()))
  in
  let send dst =
    Apps.Echo_app.send_request app ~sizes:[ 1024; 512; 64 ] a ~dst ~id:7
  in
  (* A copy of the request frame, caught by the second client. *)
  let frame = ref None in
  Net.Transport.set_rx b (fun ~src:_ buf -> frame := Some buf);
  send (Net.Endpoint.id (Net.Transport.endpoint b));
  Sim.Engine.run_all rig.Apps.Rig.engine;
  let frame =
    match !frame with Some f -> f | None -> Alcotest.fail "no frame"
  in
  let replies = ref 0 in
  Net.Transport.set_rx a (fun ~src:_ buf ->
      incr replies;
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  let cpu = rig.Apps.Rig.cpu in
  let before = deser cpu in
  send Apps.Rig.server_id;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Alcotest.(check int) "echoed" 1 !replies;
  let fresh = Memmodel.Cpu.create Memmodel.Params.default in
  Memmodel.Cpu.install_dma fresh ~addr:(Mem.Pinned.Buf.addr frame)
    ~len:(Mem.Pinned.Buf.len frame);
  let r = Wire.Reader.create ~cpu:fresh Apps.Proto.resp in
  Wire.Reader.validate r frame;
  let resp = Wire.Dyn.create Apps.Proto.resp in
  Wire.Dyn.set_int_of_reader resp Apps.Proto.resp_id r Apps.Proto.resp_id;
  for j = 0 to Wire.Reader.count_or_zero r Apps.Proto.resp_vals - 1 do
    ignore (Wire.Reader.elem_view r Apps.Proto.resp_vals ~j)
  done;
  Alcotest.(check (float 0.0))
    "Deser = validate + in-place reads" (deser fresh) (deser cpu -. before);
  Wire.Reader.clear r;
  Mem.Pinned.Buf.decr_ref ~cpu:none frame

(* A datagram that is not a Cornflakes frame is dropped by the kv server:
   its delivery reference is released, it is counted once, nothing is
   sent back, and the requests after it are served as before. *)
let test_kv_drops_invalid_frame () =
  Test_faults.with_san (fun () ->
      let backend = Apps.Backend.cornflakes () in
      let rig = Apps.Rig.create ~n_clients:1 ~transport:`Udp () in
      let app = Apps.Kv_app.install rig ~backend ~workload:fixture_workload in
      let client = List.hd rig.Apps.Rig.clients in
      let replies = ref [] in
      Net.Transport.set_rx client (fun ~src:_ buf ->
          replies := Apps.Kv_app.parse_id app buf :: !replies;
          Mem.Pinned.Buf.decr_ref ~cpu:none buf);
      let server = rig.Apps.Rig.server in
      Net.Transport.send_string client ~dst:Apps.Rig.server_id
        (String.make 64 '\xff');
      Sim.Engine.run_all rig.Apps.Rig.engine;
      Alcotest.(check int) "rejected once" 1 (Loadgen.Server.rejected server);
      Alcotest.(check (list int)) "no reply" [] !replies;
      Apps.Kv_app.send_op app
        (Workload.Spec.Get { keys = [ "single" ] })
        client ~dst:Apps.Rig.server_id ~id:5;
      Sim.Engine.run_all rig.Apps.Rig.engine;
      Alcotest.(check (list int)) "later request served" [ 5 ] !replies;
      Alcotest.(check int) "still rejected once" 1
        (Loadgen.Server.rejected server);
      Sim.Engine.quiesce rig.Apps.Rig.engine;
      Alcotest.(check int) "refsan leaks" 0
        (List.length (Sanitizer.Refsan.leaks ()));
      Alcotest.(check int) "refsan hazards" 0
        (Sanitizer.Refsan.hazard_count ()))

(* The baseline decoders reject what they cannot parse the same way the
   Cornflakes reader does: for each copying library, on the kv and on the
   echo server, a 64-byte 0xff datagram and a valid request cut one byte
   short are each counted once and answered with nothing, the next valid
   request is served, and every reference a partial parse took is
   released. *)
let test_baselines_drop_invalid_frames () =
  let kv rig backend =
    let app = Apps.Kv_app.install rig ~backend ~workload:fixture_workload in
    ( (fun client ~dst ~id ->
        Apps.Kv_app.send_op app
          (Workload.Spec.Get { keys = [ "single" ] })
          client ~dst ~id),
      Apps.Kv_app.parse_id app )
  in
  let echo rig backend =
    let app = Apps.Echo_app.install rig (Apps.Echo_app.Lib backend) in
    ( (fun client ~dst ~id ->
        Apps.Echo_app.send_request app ~sizes:[ 64; 200; 64 ] client ~dst ~id),
      Option.get (Apps.Echo_app.parse_id app) )
  in
  List.iter
    (fun (backend : Apps.Backend.t) ->
      List.iter
        (fun (server_name, install) ->
          let label what =
            Printf.sprintf "%s %s: %s" backend.Apps.Backend.name server_name
              what
          in
          Test_faults.with_san (fun () ->
              let rig = Apps.Rig.create ~n_clients:2 ~transport:`Udp () in
              let send, parse_id = install rig backend in
              let engine = rig.Apps.Rig.engine in
              let client, catcher =
                match rig.Apps.Rig.clients with
                | [ c; k ] -> (c, k)
                | _ -> assert false
              in
              (* A valid request's bytes, caught at the second client. *)
              let frame = ref "" in
              Net.Transport.set_rx catcher (fun ~src:_ buf ->
                  frame := Mem.View.to_string (Mem.Pinned.Buf.view buf);
                  Mem.Pinned.Buf.decr_ref ~cpu:none buf);
              send client
                ~dst:(Net.Endpoint.id (Net.Transport.endpoint catcher))
                ~id:7;
              Sim.Engine.run_all engine;
              let replies = ref [] in
              Net.Transport.set_rx client (fun ~src:_ buf ->
                  replies := parse_id buf :: !replies;
                  Mem.Pinned.Buf.decr_ref ~cpu:none buf);
              let server = rig.Apps.Rig.server in
              Net.Transport.send_string client ~dst:Apps.Rig.server_id
                (String.make 64 '\xff');
              Net.Transport.send_string client ~dst:Apps.Rig.server_id
                (String.sub !frame 0 (String.length !frame - 1));
              Sim.Engine.run_all engine;
              Alcotest.(check int) (label "rejected") 2
                (Loadgen.Server.rejected server);
              Alcotest.(check (list int)) (label "no reply") [] !replies;
              send client ~dst:Apps.Rig.server_id ~id:5;
              Sim.Engine.run_all engine;
              Alcotest.(check (list int)) (label "later request served") [ 5 ]
                !replies;
              Sim.Engine.quiesce engine;
              Alcotest.(check int) (label "refsan leaks") 0
                (List.length (Sanitizer.Refsan.leaks ()));
              Alcotest.(check int) (label "refsan hazards") 0
                (Sanitizer.Refsan.hazard_count ())))
        [ ("kv", kv); ("echo", echo) ])
    Apps.Backend.[ protobuf; flatbuffers; capnproto ]

(* --- ingress: hostile frames are served or counted ------------------------ *)

type ingress_server = Kv_server | Echo_server

(* The server under test and its valid traffic: the number of request
   shapes, [send i] sending the [i]th, and [parse_id] reading a reply's
   id. *)
let ingress_install rig backend = function
  | Kv_server ->
      let app = Apps.Kv_app.install rig ~backend ~workload:fixture_workload in
      let ops =
        Workload.Spec.
          [|
            Get { keys = [ "single" ] };
            Get { keys = [ "single"; "vector"; "absent" ] };
            Get_index { key = "vector"; index = 2 };
            Put { key = "fresh"; sizes = [ 90; 300 ] };
          |]
      in
      ( Array.length ops,
        (fun i client ~dst ~id -> Apps.Kv_app.send_op app ops.(i) client ~dst ~id),
        Apps.Kv_app.parse_id app )
  | Echo_server ->
      let app = Apps.Echo_app.install rig (Apps.Echo_app.Lib backend) in
      let sizes = [| [ 64 ]; [ 64; 200; 64 ]; [ 700 ] |] in
      ( Array.length sizes,
        (fun i client ~dst ~id ->
          Apps.Echo_app.send_request app ~sizes:sizes.(i) client ~dst ~id),
        Option.get (Apps.Echo_app.parse_id app) )

let show_ingress (backend, server, transport, frames) =
  Printf.sprintf "%s %s over %s: %s"
    (List.nth Apps.Backend.all backend).Apps.Backend.name
    (match server with Kv_server -> "kv" | Echo_server -> "echo")
    (Apps.Rig.transport_kind_name transport)
    (String.concat "; "
       (List.map
          (fun (i, m) -> Printf.sprintf "frame %d %s" i (Test_fuzz.show_mutation m))
          frames))

let gen_ingress =
  QCheck.Gen.(
    quad
      (int_bound (List.length Apps.Backend.all - 1))
      (oneofl [ Kv_server; Echo_server ])
      (oneofl [ `Udp; `Tcp ])
      (list_size (int_range 5 30) (pair nat Test_fuzz.gen_mutation)))

(* Random bytes, truncations and bit flips of valid request frames, for
   every backend's kv and echo server over UDP and TCP. Each frame reaches
   the handler and is either answered (one response sent) or counted as
   rejected, and no exception escapes the engine. A later valid request is
   still served, and RefSan is clean. A failure prints the case;
   QCHECK_SEED replays the run. Responses are counted where the server
   sends them: an empty Protobuf response is a zero-length datagram, which
   the receiving endpoint drops. *)
let prop_ingress =
  QCheck.Test.make ~count:120 ~name:"kv and echo ingress: served or counted"
    (QCheck.make ~print:show_ingress gen_ingress)
    (fun (backend, server, transport, frames) ->
      let sent = ref 0 in
      let backend =
        let b = List.nth Apps.Backend.all backend in
        {
          b with
          Apps.Backend.send =
            (fun tr ~dst msg ->
              incr sent;
              b.Apps.Backend.send tr ~dst msg);
        }
      in
      Test_faults.with_san (fun () ->
          let rig = Apps.Rig.create ~n_clients:2 ~transport () in
          let n_shapes, send, parse_id = ingress_install rig backend server in
          let engine = rig.Apps.Rig.engine in
          let client, catcher =
            match rig.Apps.Rig.clients with
            | [ c; k ] -> (c, k)
            | _ -> assert false
          in
          (* Each valid request's bytes, caught at the second client. *)
          let caught = ref "" in
          Net.Transport.set_rx catcher (fun ~src:_ buf ->
              caught := Mem.View.to_string (Mem.Pinned.Buf.view buf);
              Mem.Pinned.Buf.decr_ref ~cpu:none buf);
          let corpus =
            Array.init n_shapes (fun i ->
                send i client
                  ~dst:(Net.Endpoint.id (Net.Transport.endpoint catcher))
                  ~id:(i + 1);
                Sim.Engine.run_all engine;
                !caught)
          in
          let replies = ref [] in
          Net.Transport.set_rx client (fun ~src:_ buf ->
              replies := parse_id buf :: !replies;
              Mem.Pinned.Buf.decr_ref ~cpu:none buf);
          let srv = rig.Apps.Rig.server in
          let fail fmt = QCheck.Test.fail_reportf fmt in
          List.iter
            (fun (i, m) ->
              let frame = Test_fuzz.mutate corpus.(i mod n_shapes) m in
              let served0 = Loadgen.Server.served srv
              and rejected0 = Loadgen.Server.rejected srv
              and sent0 = !sent in
              Net.Transport.send_string client ~dst:Apps.Rig.server_id frame;
              Sim.Engine.run_all engine;
              let served = Loadgen.Server.served srv - served0
              and counted = Loadgen.Server.rejected srv - rejected0
              and answered = !sent - sent0 in
              if served <> 1 || answered + counted <> 1 then
                fail "frame %d %s: %d served, %d responses, %d rejects" i
                  (Test_fuzz.show_mutation m) served answered counted)
            frames;
          replies := [];
          send 0 client ~dst:Apps.Rig.server_id ~id:4242;
          Sim.Engine.run_all engine;
          if !replies <> [ 4242 ] then fail "a later valid request went unserved";
          Sim.Engine.quiesce engine;
          let leaks = List.length (Sanitizer.Refsan.leaks ())
          and hazards = Sanitizer.Refsan.hazard_count () in
          if leaks <> 0 || hazards <> 0 then
            fail "refsan: %d leaks, %d hazards" leaks hazards;
          true))

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

(* Steady-state minor words of one kv GET: the server's handler (the
   generated skeleton over Kv_app's rows) and the client's generated
   [deliver], each counted around its call with the engine drained. The
   key's 700-byte value goes out zero-copy. The budget, item by item: the
   value's [Zero_copy] box (2 words; the held buffer is referenced, not
   recovered into a fresh handle, and no view of it is built), the staging
   buffer's handle (4; the writer is retargeted at its window, no view),
   and the two counter readings (2 each). Reading the method and id words
   allocates nothing. *)
let test_kv_get_allocation_budget () =
  let rig = Apps.Rig.create ~n_clients:1 ~transport:`Udp () in
  let backend = Apps.Backend.cornflakes () in
  let (_ : Apps.Kv_app.t) =
    Apps.Kv_app.install rig ~backend ~workload:fixture_workload
  in
  let module KS = Apps.Kv_rpc.Kv_service in
  let client = List.hd rig.Apps.Rig.clients in
  let c = KS.client client in
  let words = ref 0.0 in
  let count f =
    let w0 = Gc.minor_words () in
    f ();
    words := !words +. (Gc.minor_words () -. w0)
  in
  let h = Loadgen.Server.handler rig.Apps.Rig.server in
  Loadgen.Server.set_handler rig.Apps.Rig.server (fun ~src buf ->
      count (fun () -> h ~src buf));
  Net.Transport.set_rx client (fun ~src:_ buf ->
      count (fun () -> KS.deliver c buf);
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  let req = Apps.Kv_rpc.Req.create () in
  Apps.Kv_rpc.Req.add_keys_payload req
    (Wire.Payload.of_string rig.Apps.Rig.space "single");
  let values = ref 0 in
  let on_reply r =
    values := !values + Wire.Reader.count_or_zero r Apps.Proto.resp_vals
  in
  let get () =
    ignore (KS.call_get c ~dst:Apps.Rig.server_id req ~on_reply);
    Sim.Engine.run_all rig.Apps.Rig.engine;
    Mem.Arena.reset (Net.Transport.arena client)
  in
  for _ = 1 to 200 do
    get ()
  done;
  words := 0.0;
  values := 0;
  let n = 1_000 in
  for _ = 1 to n do
    get ()
  done;
  Alcotest.(check int) "every get answered with its value" n !values;
  let per = !words /. float_of_int n in
  let budget = 2.0 +. 4.0 +. (2.0 *. 2.0) in
  if per > budget then
    Alcotest.failf "%.1f words per kv GET, budget %.0f" per budget

let suite =
  [
    Alcotest.test_case "kv all backends serve" `Slow test_kv_all_backends_serve;
    Alcotest.test_case "kv responses carry values" `Quick
      test_kv_responses_carry_values;
    Alcotest.test_case "kv put then get" `Quick test_kv_put_then_get;
    Alcotest.test_case "kv drops an invalid frame" `Quick
      test_kv_drops_invalid_frame;
    Alcotest.test_case "baselines drop invalid frames" `Quick
      test_baselines_drop_invalid_frames;
    QCheck_alcotest.to_alcotest prop_ingress;
    Alcotest.test_case "kv request shapes x decoders x transports" `Quick
      test_kv_rx_cases;
    Alcotest.test_case "open loop latency" `Quick test_open_loop_latency_reasonable;
    Alcotest.test_case "open loop overload" `Quick test_open_loop_overload_detected;
    Alcotest.test_case "echo modes roundtrip" `Slow test_echo_modes_roundtrip;
    Alcotest.test_case "cornflakes echo reads in place" `Quick
      test_echo_reads_in_place;
    Alcotest.test_case "no buffer leaks" `Quick test_no_buffer_leaks_across_requests;
    Alcotest.test_case "queue drops under burst" `Quick
      test_server_queue_drops_under_burst;
    Alcotest.test_case "kv GET allocation budget" `Quick
      test_kv_get_allocation_budget;
  ]

(* The paper's Listing 4 flow: a key-value server that answers multi-get
   requests with values taken zero-copy from pinned memory, written against
   the compiler-generated accessors in Kv_msgs (compiled from kv.proto at
   build time).

   Run with:  dune exec examples/kv_store_demo.exe *)

let config = Cornflakes.Config.default

(* handle_get from Listing 4: deserialize, look up each key, append a CFPtr
   per value, send_object — no separate serialize call. *)
let handle_get rig store ~src buf =
  let cpu = rig.Apps.Rig.cpu in
  let ep = rig.Apps.Rig.server_ep in
  let tr = rig.Apps.Rig.server_tr in
  let getm = Kv_msgs.Getreq.deserialize ~cpu buf in
  let resp = Kv_msgs.Getresp.create () in
  (match Kv_msgs.Getreq.id getm with
  | Some id -> Kv_msgs.Getresp.set_id resp id
  | None -> ());
  List.iter
    (fun key_payload ->
      let key = Wire.Payload.to_string key_payload in
      match Kvstore.Store.get ~cpu store ~key with
      | Some value ->
          List.iter
            (fun vbuf ->
              Kv_msgs.Getresp.add_vals ~cpu config ep resp
                (Mem.Pinned.Buf.view vbuf))
            (Kvstore.Store.buffers value)
      | None -> ())
    (Kv_msgs.Getreq.keys getm);
  Kv_msgs.Getresp.send config tr ~dst:src resp;
  Kv_msgs.Getreq.release ~cpu getm;
  Mem.Pinned.Buf.decr_ref ~cpu buf

let () =
  let rig = Apps.Rig.create ~n_clients:1 () in
  let pool =
    Apps.Rig.data_pool rig ~name:"demo"
      ~classes:[ (256, 64); (1024, 64); (4096, 64) ]
  in
  let store = Kvstore.Store.create rig.Apps.Rig.space ~name:"demo" ~capacity:64 in
  List.iter
    (fun (key, size) ->
      let cpu = Memmodel.Cpu.none (* the preload is not measured *) in
      let buf = Mem.Pinned.Buf.alloc ~cpu pool ~len:size in
      Mem.Pinned.Buf.fill ~cpu buf (Workload.Spec.filler size);
      Kvstore.Store.put_string ~cpu store ~key (Kvstore.Store.Single buf))
    [ ("small", 100); ("medium", 800); ("large", 4000) ];
  Loadgen.Server.set_handler rig.Apps.Rig.server (fun ~src buf ->
      handle_get rig store ~src buf);

  let client = List.hd rig.Apps.Rig.clients in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      let resp = Kv_msgs.Getresp.deserialize ~cpu:Memmodel.Cpu.none buf in
      Printf.printf "response id=%Ld with %d values: %s\n"
        (Option.value ~default:0L (Kv_msgs.Getresp.id resp))
        (List.length (Kv_msgs.Getresp.vals resp))
        (String.concat ", "
           (List.map
              (fun p -> string_of_int (Wire.Payload.len p) ^ "B")
              (Kv_msgs.Getresp.vals resp)));
      Wire.Dyn.release ~cpu:Memmodel.Cpu.none (Kv_msgs.Getresp.to_dyn resp);
      Mem.Pinned.Buf.decr_ref ~cpu:Memmodel.Cpu.none buf);

  (* A multi-get for all three keys: the 100 B value is copied, the 800 B
     and 4000 B values ride as zero-copy gather entries. *)
  let req = Kv_msgs.Getreq.create () in
  Kv_msgs.Getreq.set_id req 42L;
  List.iter
    (fun key ->
      Kv_msgs.Getreq.add_keys_payload req
        (Wire.Payload.of_string rig.Apps.Rig.space key))
    [ "small"; "medium"; "large" ];
  Kv_msgs.Getreq.send config client ~dst:Apps.Rig.server_id req;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Printf.printf "server handled %d request(s); mean service time %.0f ns\n"
    (Loadgen.Server.served rig.Apps.Rig.server)
    (Loadgen.Server.mean_service_ns rig.Apps.Rig.server)

(* The paper's Listing 4 flow: a key-value server that answers multi-get
   requests with values taken zero-copy from pinned memory, written against
   the compiler-generated accessors in Kv_msgs (compiled from kv.proto at
   build time).

   Run with:  dune exec examples/kv_store_demo.exe *)

let config = Cornflakes.Config.default

(* handle_get from Listing 4: validate the request once, look up each key
   read in place, append a CFPtr per value, send_object — no separate
   serialize call, and no request object is built. *)
let handle_get rig store getm ~src buf =
  let cpu = rig.Apps.Rig.cpu in
  let ep = rig.Apps.Rig.server_ep in
  let tr = rig.Apps.Rig.server_tr in
  Kv_msgs.Getreq.read_folded getm buf;
  let resp = Kv_msgs.Getresp.create () in
  if Wire.Reader.present getm Kv_msgs.Getreq.idx_id then
    Kv_msgs.Getresp.set_id resp
      (Wire.Reader.get_u64 getm Kv_msgs.Getreq.idx_id);
  for j = 0 to Wire.Reader.count_or_zero getm Kv_msgs.Getreq.idx_keys - 1 do
    let key = Wire.Reader.elem_string getm Kv_msgs.Getreq.idx_keys ~j in
    match Kvstore.Store.get ~cpu store ~key with
    | Some value ->
        List.iter
          (fun vbuf ->
            Kv_msgs.Getresp.add_vals ~cpu config ep resp
              (Mem.Pinned.Buf.view vbuf))
          (Kvstore.Store.buffers value)
    | None -> ()
  done;
  Kv_msgs.Getresp.send config tr ~dst:src resp;
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
  (* Pooled in-place readers, one per message type per endpoint. *)
  let getm = Kv_msgs.Getreq.reader ~cpu:rig.Apps.Rig.cpu () in
  Loadgen.Server.set_handler rig.Apps.Rig.server (fun ~src buf ->
      handle_get rig store getm ~src buf);

  let client = List.hd rig.Apps.Rig.clients in
  let resp = Kv_msgs.Getresp.reader ~cpu:Memmodel.Cpu.none () in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      Kv_msgs.Getresp.read_folded resp buf;
      let n = Wire.Reader.count_or_zero resp Kv_msgs.Getresp.idx_vals in
      Printf.printf "response id=%Ld with %d values: %s\n"
        (Wire.Reader.get_u64_or resp Kv_msgs.Getresp.idx_id ~default:0L)
        n
        (String.concat ", "
           (List.init n (fun j ->
                let v =
                  Wire.Reader.elem_view resp Kv_msgs.Getresp.idx_vals ~j
                in
                string_of_int v.Mem.View.len ^ "B")));
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

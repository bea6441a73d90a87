(* One shard of the cluster: a shared-nothing ownership domain. Each shard
   has its own CPU (sharing the socket L3 with its siblings), endpoint,
   pinned-buffer pool, and store — the only way in or out is a message
   through [Net.Transport], so the ownership story StatCheck and RefSan
   verify for a single rig holds per shard by construction.

   The request protocol is the kv [Apps.Proto] schema: the dispatcher's
   sub-requests are ordinary Req messages whose id is the fan-out id, and
   partial responses are Resp messages echoing it. Values appended to a
   get response keep positional alignment with the sub-request's keys
   (a miss answers an empty value), which is what lets the dispatcher
   reassemble multi-get responses without re-parsing keys. Requests are
   read in place: the shard speaks only the Cornflakes wire format. *)

(* The generated skeleton over the in-place request reader. *)
module Kv_server = Apps.Kv_rpc.Kv_service.Server (Apps.Kv_rpc.Req.In_place)

type t = {
  index : int; (* dense 0..n-1, for per-shard report rows *)
  id : int; (* endpoint id on the fabric *)
  cpu : Memmodel.Cpu.t;
  ep : Net.Endpoint.t;
  tr : Net.Transport.t;
  server : Loadgen.Server.t;
  backend : Apps.Backend.t;
  store : Kvstore.Store.t;
  pool : Mem.Pinned.Pool.t;
  (* Generated server skeleton: owns the pooled response and the
     branchless method-dispatch table ([Get]/[Put] rows registered at
     create; unregistered methods answer the bare id echo). *)
  rpc : Kv_server.server;
  mutable keys_served : int;
  mutable puts : int;
  mutable misses : int;
  mutable drops : int; (* put values dropped on pool exhaustion *)
}

let append_value t resp buf =
  let payload = t.backend.Apps.Backend.wrap_buf t.tr buf in
  Wire.Dyn.append_payload_at resp Apps.Proto.resp_vals payload

let rec append_values t resp = function
  | [] -> ()
  | buf :: rest ->
      append_value t resp buf;
      append_values t resp rest

(* Keys are read in place through [Reader.elem_key], which charges the
   byte sweep (the handler must hash/compare them) to App; the store
   probes with the receive buffer's own bytes. Values go out in
   [Kvstore.Store.buffers] order. *)
let handle_get t ~cpu r resp =
  for j = 0 to Wire.Reader.count_or_zero r Apps.Proto.req_keys - 1 do
    let k = Wire.Reader.elem_key r Apps.Proto.req_keys ~j in
    let entry =
      Kvstore.Store.find ~cpu t.store (Wire.Reader.data r)
        ~off:(Wire.Reader.key_off r k) ~len:(Wire.Reader.key_len r k)
    in
    if entry >= 0 then begin
      t.keys_served <- t.keys_served + 1;
      match Kvstore.Store.value t.store entry with
      | Kvstore.Store.Single buf -> append_value t resp buf
      | Kvstore.Store.Linked bufs -> append_values t resp bufs
      | Kvstore.Store.Vector arr ->
          for i = 0 to Array.length arr - 1 do
            append_value t resp arr.(i)
          done
    end
    else begin
      (* Positional alignment with the sub-request keys must survive a
         miss: answer an empty value for this slot. *)
      t.misses <- t.misses + 1;
      Wire.Dyn.append_payload_at resp Apps.Proto.resp_vals Wire.Payload.empty
    end
  done

let handle_put t ~cpu r =
  if Wire.Reader.count_or_zero r Apps.Proto.req_keys = 1 then begin
    let k = Wire.Reader.elem_key r Apps.Proto.req_keys ~j:0 in
    let data = Wire.Reader.data r in
    let off = Wire.Reader.key_off r k and len = Wire.Reader.key_len r k in
    let bufs =
      List.filter_map
        (fun j ->
          let src = Wire.Reader.elem_view r Apps.Proto.req_vals ~j in
          match
            Mem.Pinned.Buf.alloc ~cpu ~site:"Shard.put_value" t.pool
              ~len:(max 1 src.Mem.View.len)
          with
          | buf ->
              Mem.Pinned.Buf.blit_from ~cpu ~site:"Shard.put_value" buf ~src
                ~dst_off:0;
              Some buf
          | exception Mem.Pinned.Out_of_memory _ ->
              t.drops <- t.drops + 1;
              None)
        (List.init (Wire.Reader.count_or_zero r Apps.Proto.req_vals) Fun.id)
    in
    match bufs with
    | [] -> ()
    | bufs ->
        t.puts <- t.puts + 1;
        Kvstore.Store.put ~cpu t.store data ~off ~len
          (match bufs with
          | [ one ] -> Kvstore.Store.Single one
          | many -> Kvstore.Store.Linked many)
  end

(* The generated skeleton validates the request once into its pooled
   reader, echoes the id into the pooled response, dispatches the method
   word through the branchless table and tail-sends; a frame that fails
   validation is counted and dropped. *)
let handler t ~src buf =
  if not (Kv_server.serve t.rpc ~src buf) then
    Loadgen.Server.reject t.server;
  Mem.Pinned.Buf.decr_ref ~cpu:t.cpu ~site:"Shard.handler_done" buf

let create ~fabric ~registry ~space ~shared_l3 ~kind ~backend ~queue_limit
    ~index ~id ~pool_classes ~store_capacity =
  let cpu = Memmodel.Cpu.create ~shared_l3 Memmodel.Params.default in
  let ep = Net.Endpoint.create ~cpu fabric registry ~id in
  let tr = Apps.Rig.transport_for ~kind ep in
  let server = Loadgen.Server.create ~queue_limit tr in
  let pool =
    Mem.Pinned.Pool.create space
      ~name:(Printf.sprintf "shard-%d" index)
      ~classes:pool_classes
  in
  Mem.Registry.register registry pool;
  let store =
    Kvstore.Store.create space
      ~name:(Printf.sprintf "shard-%d" index)
      ~capacity:store_capacity
  in
  let rpc =
    Kv_server.server
      ~send:(fun ~dst resp -> backend.Apps.Backend.send tr ~dst resp)
      (Apps.Kv_rpc.Req.reader ~cpu ())
  in
  let t =
    {
      index;
      id;
      cpu;
      ep;
      tr;
      server;
      backend;
      store;
      pool;
      rpc;
      keys_served = 0;
      puts = 0;
      misses = 0;
      drops = 0;
    }
  in
  Kv_server.on_get rpc (fun ~src:_ r resp -> handle_get t ~cpu r resp);
  Kv_server.on_put rpc (fun ~src:_ r _resp -> handle_put t ~cpu r);
  Loadgen.Server.set_handler server (fun ~src buf -> handler t ~src buf);
  t

let id t = t.id

let index t = t.index

let endpoint t = t.ep

let server t = t.server

let cpu t = t.cpu

let store t = t.store

let pool t = t.pool

let served t = Loadgen.Server.served t.server

let keys_served t = t.keys_served

let puts t = t.puts

let misses t = t.misses

let drops t = t.drops

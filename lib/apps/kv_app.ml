type t = {
  rig : Rig.t;
  backend : Backend.t;
  workload : Workload.Spec.t;
  store : Kvstore.Store.t;
  pool : Mem.Pinned.Pool.t;
  client_rng : Sim.Rng.t;
  (* Pooled request object, rebuilt in place per message. The stack takes
     over any zero-copy references at send, so a [Dyn.clear] (not
     [reset]) between uses is the correct ownership move. The pooled
     response now lives inside the generated [Kv_rpc.Kv_service] server
     skeleton built per [activate]. *)
  req_scratch : Wire.Dyn.t;
  response_id : Mem.Pinned.Buf.t -> int; (* client-side response parse *)
  (* Resilience mode (set by [enable_resilience]; shared across
     [switch_backend] copies via the ref/tables). With a dedup window
     installed, duplicate puts are suppressed (gets are idempotent and
     re-executed), retried ids replay the same cached op, and per-id put
     applications are recorded for exactly-once assertions. *)
  mutable dedup : Net.Dedup.t option;
  puts_suppressed : int ref;
  put_applies : (int, int) Hashtbl.t; (* request id -> put applications *)
  retry_cache : (int, Workload.Spec.op) Hashtbl.t; (* in-flight id -> op *)
}

let store t = t.store

let pool t = t.pool

let append_value t resp buf =
  let payload = t.backend.Backend.wrap_buf t.rig.Rig.server_tr buf in
  Wire.Dyn.append_payload_at resp Proto.resp_vals payload

let rec append_values t resp = function
  | [] -> ()
  | buf :: rest ->
      append_value t resp buf;
      append_values t resp rest

(* Keys arrive as windows [(data, off, len)] on the request bytes: the
   store hashes and compares them in place. Values go out in
   [Kvstore.Store.buffers] order. *)
let get t ~cpu resp data ~off ~len =
  let entry = Kvstore.Store.find ~cpu t.store data ~off ~len in
  if entry >= 0 then
    match Kvstore.Store.value t.store entry with
    | Kvstore.Store.Single buf -> append_value t resp buf
    | Kvstore.Store.Linked bufs -> append_values t resp bufs
    | Kvstore.Store.Vector arr ->
        for j = 0 to Array.length arr - 1 do
          append_value t resp arr.(j)
        done

(* [index] is the request's u64 read as an int: a hostile one is
   negative or past the end, and reads nothing. *)
let get_index t ~cpu resp data ~off ~len index =
  let entry = Kvstore.Store.find ~cpu t.store data ~off ~len in
  if entry >= 0 then
    match Kvstore.Store.value t.store entry with
    | Kvstore.Store.Vector arr when index >= 0 && index < Array.length arr ->
        append_value t resp arr.(index)
    | _ -> ()

(* Allocate-and-swap: copy the incoming bytes into fresh pinned buffers;
   never touch the old value in place. *)
let put t ~cpu data ~off ~len vals =
  let bufs =
    List.filter_map
      (fun src ->
        match
          Mem.Pinned.Buf.alloc ~cpu ~site:"Kv_app.put_value" t.pool
            ~len:src.Mem.View.len
        with
        | buf ->
            Mem.Pinned.Buf.blit_from ~cpu ~site:"Kv_app.put_value" buf ~src
              ~dst_off:0;
            Some buf
        | exception Mem.Pinned.Out_of_memory _ ->
            (* Pool churn exhausted the class: drop the put, as a cache
               would under eviction pressure. *)
            None)
      vals
  in
  match bufs with
  | [] -> ()
  | [ one ] ->
      Kvstore.Store.put ~cpu t.store data ~off ~len (Kvstore.Store.Single one)
  | many ->
      Kvstore.Store.put ~cpu t.store data ~off ~len (Kvstore.Store.Linked many)

(* Resilience bookkeeping, first thing in every method row: the duplicate
   witness reads the id the skeleton already echoed into the response.
   Gets are idempotent and re-executed; a duplicate put is suppressed
   (answered with the id-only ack the retry layer needs) and first put
   applications are recorded for the exactly-once audit. [false] means
   skip the method. *)
let admit t ~src ~put resp =
  match t.dedup with
  | None -> true
  | Some d -> (
      if not (Wire.Dyn.mem resp Proto.resp_id) then true
      else
          let id = Wire.Dyn.int_of_int_at resp Proto.resp_id in
          let duplicate = Net.Dedup.witness d ~src ~id = `Duplicate in
          if put && duplicate then incr t.puts_suppressed
          else if put then
            Hashtbl.replace t.put_applies id
              (1 + Option.value (Hashtbl.find_opt t.put_applies id) ~default:0);
          not (put && duplicate))

let serve_with (type r) t (module D : Kv_rpc.Req.R with type t = r) (req : r) =
  let module S = Kv_rpc.Kv_service.Server (D) in
  let cpu = t.rig.Rig.cpu in
  let tr = t.rig.Rig.server_tr in
  let srv =
    S.server ~send:(fun ~dst resp -> t.backend.Backend.send tr ~dst resp) req
  in
  (* The value windows of a put, in order. *)
  let rec views r j n =
    if j >= n then []
    else
      let v = D.vals_view r j in
      v :: views r (j + 1) n
  in
  (* Keys are read as windows on the request bytes. *)
  S.on_get srv (fun ~src r resp ->
      if admit t ~src ~put:false resp then
        for j = 0 to D.keys_count r - 1 do
          let k = D.keys_key r j in
          get t ~cpu resp (D.key_data r k) ~off:(D.key_off r k)
            ~len:(D.key_len r k)
        done);
  S.on_get_index srv (fun ~src r resp ->
      if admit t ~src ~put:false resp && D.keys_count r = 1 && D.has_index r
      then
        let index = D.index r in
        let k = D.keys_key r 0 in
        get_index t ~cpu resp (D.key_data r k) ~off:(D.key_off r k)
          ~len:(D.key_len r k) index);
  (* A put reads the value windows first, then the key: the key's App
     sweep lands after the value slot reads and before the value
     allocations. *)
  S.on_put srv (fun ~src r resp ->
      if admit t ~src ~put:true resp && D.keys_count r = 1 then
        let vals = views r 0 (D.vals_count r) in
        let k = D.keys_key r 0 in
        put t ~cpu (D.key_data r k) ~off:(D.key_off r k) ~len:(D.key_len r k)
          vals);
  Loadgen.Server.set_handler t.rig.Rig.server (fun ~src buf ->
      if not (S.serve srv ~src buf) then Loadgen.Server.reject t.rig.Rig.server;
      Mem.Pinned.Buf.decr_ref ~cpu ~site:"Kv_app.handler_done" buf);
  t

(* The server is the generated [Kv_rpc.Kv_service] skeleton over the one
   decoder of the backend's wire format, chosen here once: Cornflakes
   frames are validated once and read in place ([Req.In_place]); the
   baselines' formats only their own decoders can read, so those parse
   into a [Wire.Dyn] ([Req.Parsed]). Each method's handler is written once
   against [Req.R]. The skeleton echoes the id into the pooled response,
   dispatches the method word through the branchless table and tail-sends
   the response, unknown ops included; a frame its decoder rejects is
   counted and dropped. *)
let activate t =
  match
    Kv_rpc.Req.decoder ~cpu:t.rig.Rig.cpu
      (Backend.parser t.backend t.rig.Rig.server_tr Proto.req)
  with
  | Kv_rpc.Req.Decoder (d, req) -> serve_with t d req

let install rig ~backend ~workload =
  let pool =
    Rig.data_pool rig ~name:("kv-" ^ workload.Workload.Spec.name)
      ~classes:workload.Workload.Spec.pool_classes
  in
  let store =
    Kvstore.Store.create rig.Rig.space ~name:workload.Workload.Spec.name
      ~capacity:workload.Workload.Spec.store_capacity
  in
  workload.Workload.Spec.populate store ~pool;
  activate
    {
      rig;
      backend;
      workload;
      store;
      pool;
      client_rng = Sim.Rng.split rig.Rig.rng;
      req_scratch = Wire.Dyn.create Proto.req;
      response_id = Backend.response_id backend ~clients:rig.Rig.clients;
      dedup = None;
      puts_suppressed = ref 0;
      put_applies = Hashtbl.create 256;
      retry_cache = Hashtbl.create 256;
    }

let switch_backend t backend =
  activate
    {
      t with
      backend;
      response_id = Backend.response_id backend ~clients:t.rig.Rig.clients;
    }

let enable_resilience t ~dedup = t.dedup <- Some dedup

let dedup t = t.dedup

let puts_suppressed t = !(t.puts_suppressed)

let put_apply_counts t =
  Hashtbl.fold (fun id n acc -> (id, n) :: acc) t.put_applies []
  |> List.sort compare

(* --- Client side (uncharged) ------------------------------------------ *)

let send_op t op client ~dst ~id =
  let space = t.rig.Rig.space in
  let msg = t.req_scratch in
  let add_key key =
    Wire.Dyn.append_payload_at msg Proto.req_keys
      (Wire.Payload.of_string space key)
  in
  Wire.Dyn.clear msg;
  Wire.Dyn.set_int_of_int msg Proto.req_id id;
  (match op with
  | Workload.Spec.Get { keys } ->
      Wire.Dyn.set_int_at msg Proto.req_op Proto.op_get;
      List.iter add_key keys
  | Workload.Spec.Get_index { key; index } ->
      Wire.Dyn.set_int_at msg Proto.req_op Proto.op_get_index;
      add_key key;
      Wire.Dyn.set_int_of_int msg Proto.req_index index
  | Workload.Spec.Put { key; sizes } ->
      Wire.Dyn.set_int_at msg Proto.req_op Proto.op_put;
      add_key key;
      List.iter
        (fun n ->
          Wire.Dyn.append_payload_at msg Proto.req_vals
            (Wire.Payload.of_string space (Workload.Spec.filler (max 1 n))))
        sizes);
  t.backend.Backend.send client ~dst msg;
  (* Client-side arenas hold per-request copies; recycle them. *)
  Mem.Arena.reset (Net.Transport.arena client)

let send_next t client ~dst ~id =
  match t.dedup with
  | None -> send_op t (t.workload.Workload.Spec.next t.client_rng) client ~dst ~id
  | Some _ ->
      (* Resilience mode: a retransmission must replay the same op the id
         was first sent with, not draw a fresh one from the workload. *)
      let op =
        match Hashtbl.find_opt t.retry_cache id with
        | Some op -> op
        | None ->
            let op = t.workload.Workload.Spec.next t.client_rng in
            Hashtbl.replace t.retry_cache id op;
            op
      in
      send_op t op client ~dst ~id

let parse_id t buf =
  let id = t.response_id buf in
  Hashtbl.remove t.retry_cache id;
  id

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
  resp_reader : Wire.Reader.t; (* client-side response parse *)
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

(* Read a key payload out of a parsed request: the handler streams over
   the key bytes (it must hash them), charged to App — the same sweep
   [Wire.Reader.elem_key] charges on the in-place path. *)
let key_view ~cpu (p : Wire.Payload.t) =
  let v = Wire.Payload.view p in
  Memmodel.Cpu.stream cpu Memmodel.Cpu.App ~addr:v.Mem.View.addr
    ~len:v.Mem.View.len;
  v

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

let get_index t ~cpu resp data ~off ~len index =
  let entry = Kvstore.Store.find ~cpu t.store data ~off ~len in
  if entry >= 0 then
    match Kvstore.Store.value t.store entry with
    | Kvstore.Store.Vector arr when index < Array.length arr ->
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

(* The server is the generated [Kv_rpc.Kv_service] skeleton, with one
   decoder per wire format. Cornflakes frames are validated once and read
   in place ([serve], the [~reader] rows). The baselines' formats only
   their own decoders can read, so they parse into a [Wire.Dyn] for
   [serve_dyn] (the [~dyn] rows). A frame that fails either decoder is
   counted and dropped. Otherwise the skeleton echoes the id into the
   pooled response, dispatches the method word through the branchless
   table and tail-sends the response, unknown ops included. *)
let handler t srv ~src buf =
  let cpu = t.rig.Rig.cpu in
  (match t.backend.Backend.recv with
  | None ->
      if not (Kv_rpc.Kv_service.serve srv ~src buf) then
        Loadgen.Server.reject t.rig.Rig.server
  | Some recv -> (
      match recv t.rig.Rig.server_tr Proto.req buf with
      | exception Wire.Reader.Invalid _ ->
          Loadgen.Server.reject t.rig.Rig.server
      | req ->
          Kv_rpc.Kv_service.serve_dyn srv ~src req;
          Wire.Dyn.release ~cpu req));
  Mem.Pinned.Buf.decr_ref ~cpu ~site:"Kv_app.handler_done" buf

let activate t =
  let cpu = t.rig.Rig.cpu in
  let tr = t.rig.Rig.server_tr in
  let srv =
    Kv_rpc.Kv_service.server ~cpu
      ~send:(fun ~dst resp -> t.backend.Backend.send tr ~dst resp)
      ()
  in
  let nkeys r = Wire.Reader.count_or_zero r Proto.req_keys in
  let key r j = Wire.Reader.elem_key r Proto.req_keys ~j in
  let dyn_nkeys req = Wire.Dyn.count req Proto.req_keys in
  let dyn_key req j =
    key_view ~cpu (Wire.Dyn.elem_payload req Proto.req_keys j)
  in
  Kv_rpc.Kv_service.on_get srv
    ~reader:(fun ~src r resp ->
      if admit t ~src ~put:false resp then
        for j = 0 to nkeys r - 1 do
          let k = key r j in
          get t ~cpu resp (Wire.Reader.data r) ~off:(Wire.Reader.key_off r k)
            ~len:(Wire.Reader.key_len r k)
        done)
    ~dyn:(fun ~src req resp ->
      if admit t ~src ~put:false resp then
        for j = 0 to dyn_nkeys req - 1 do
          let v = dyn_key req j in
          get t ~cpu resp v.Mem.View.data ~off:v.Mem.View.off
            ~len:v.Mem.View.len
        done);
  Kv_rpc.Kv_service.on_get_index srv
    ~reader:(fun ~src r resp ->
      if
        admit t ~src ~put:false resp
        && nkeys r = 1
        && Wire.Reader.present r Proto.req_index
      then
        let index = Int64.to_int (Wire.Reader.get_u64 r Proto.req_index) in
        let k = key r 0 in
        get_index t ~cpu resp (Wire.Reader.data r)
          ~off:(Wire.Reader.key_off r k) ~len:(Wire.Reader.key_len r k) index)
    ~dyn:(fun ~src req resp ->
      if
        admit t ~src ~put:false resp
        && dyn_nkeys req = 1
        && Wire.Dyn.mem req Proto.req_index
      then
        let index = Wire.Dyn.int_of_int_at req Proto.req_index in
        let v = dyn_key req 0 in
        get_index t ~cpu resp v.Mem.View.data ~off:v.Mem.View.off
          ~len:v.Mem.View.len index);
  (* Put rows read the value windows first, then the key: the key's App
     sweep lands after the value slot reads and before the value
     allocations. *)
  Kv_rpc.Kv_service.on_put srv
    ~reader:(fun ~src r resp ->
      if admit t ~src ~put:true resp && nkeys r = 1 then
        let vals =
          List.init (Wire.Reader.count_or_zero r Proto.req_vals) (fun j ->
              Wire.Reader.elem_view r Proto.req_vals ~j)
        in
        let k = key r 0 in
        put t ~cpu (Wire.Reader.data r) ~off:(Wire.Reader.key_off r k)
          ~len:(Wire.Reader.key_len r k) vals)
    ~dyn:(fun ~src req resp ->
      if admit t ~src ~put:true resp && dyn_nkeys req = 1 then
        let vals =
          List.init (Wire.Dyn.count req Proto.req_vals) (fun j ->
              Wire.Payload.view (Wire.Dyn.elem_payload req Proto.req_vals j))
        in
        let v = dyn_key req 0 in
        put t ~cpu v.Mem.View.data ~off:v.Mem.View.off ~len:v.Mem.View.len vals);
  Loadgen.Server.set_handler t.rig.Rig.server (fun ~src buf ->
      handler t srv ~src buf);
  t

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
      resp_reader = Kv_rpc.Resp.reader ~cpu:Memmodel.Cpu.none ();
      dedup = None;
      puts_suppressed = ref 0;
      put_applies = Hashtbl.create 256;
      retry_cache = Hashtbl.create 256;
    }

let switch_backend t backend = activate { t with backend }

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
  let id =
    Backend.response_id t.backend t.resp_reader ~clients:t.rig.Rig.clients buf
  in
  Hashtbl.remove t.retry_cache id;
  id

type mode = Native | Cornflakes_backed of Cornflakes.Config.t

let mode_name = function
  | Native -> "redis-native"
  | Cornflakes_backed _ -> "redis-cornflakes"

type t = {
  rig : Apps.Rig.t;
  mode : mode;
  store : Kvstore.Store.t;
  pool : Mem.Pinned.Pool.t;
  workload : Workload.Spec.t;
  list_values : bool;
  client_rng : Sim.Rng.t;
}

let store t = t.store

(* A bulk argument read in the receive buffer, its sweep charged to App:
   keys are probed in place, never copied out. [handler] admits only
   commands whose every element is a bulk. *)
let arg_view ~cpu (v : Resp.value) =
  match v with
  | Resp.Bulk view ->
      Memmodel.Cpu.stream cpu Memmodel.Cpu.App ~addr:view.Mem.View.addr
        ~len:view.Mem.View.len;
      view
  | _ -> invalid_arg "Mini_redis.Server: non-bulk argument"

let arg_string ~cpu v = Mem.View.to_string (arg_view ~cpu v)

(* The store entry of a key argument, or -1. *)
let find_arg t ~cpu key =
  let v = arg_view ~cpu key in
  Kvstore.Store.find ~cpu t.store v.Mem.View.data ~off:v.Mem.View.off
    ~len:v.Mem.View.len

let first_buf t entry =
  match Kvstore.Store.value t.store entry with
  | Kvstore.Store.Single buf -> Resp.Bulk (Mem.Pinned.Buf.view buf)
  | value -> (
      match Kvstore.Store.buffers value with
      | buf :: _ -> Resp.Bulk (Mem.Pinned.Buf.view buf)
      | [] -> Resp.Null)

(* Case-insensitive command dispatch straight over the decoded view: the
   command name never leaves the receive buffer (no [to_string], no
   [uppercase_ascii] allocation per request). [name] must be uppercase. *)
let cmd_is (v : Resp.value) name =
  match v with
  | Resp.Bulk view ->
      let n = String.length name in
      view.Mem.View.len = n
      && begin
           let ok = ref true in
           for i = 0 to n - 1 do
             let c =
               Char.uppercase_ascii
                 (Bytes.get view.Mem.View.data (view.Mem.View.off + i))
             in
             if c <> String.unsafe_get name i then ok := false
           done;
           !ok
         end
  | _ -> false

let charge_cmd ~cpu (v : Resp.value) =
  match v with
  | Resp.Bulk view ->
      Memmodel.Cpu.stream cpu Memmodel.Cpu.App ~addr:view.Mem.View.addr
        ~len:view.Mem.View.len
  | _ -> ()

(* --- Schema-driven command dispatch ------------------------------------ *)

(* The command set is declared as the [Redis] service in the apps schema
   ([Apps.Kv_rpc]): the candidate list the scanner probes and the dispatch
   rows below are both keyed by the schema's compact method ids, the same
   single source of truth the kv store and the cluster use for their op
   tags. RESP keeps its own wire format — only the dispatch is schema-
   driven. *)
module Rsvc = Apps.Kv_rpc.Redis_service

(* A command that matches no row (or a row given the wrong argument
   shape) answers the redis unknown-command error, as before. *)
let err_unknown ~cpu cmd =
  Resp.Error
    ("ERR unknown command '" ^ String.uppercase_ascii (arg_string ~cpu cmd) ^ "'")

(* Candidate commands in declaration order: uppercase RESP command name,
   schema method id. *)
let commands =
  Array.map
    (fun (m : Schema.Desc.method_) ->
      (String.uppercase_ascii m.Schema.Desc.meth_name, m.Schema.Desc.meth_id))
    Rsvc.svc.Schema.Desc.methods

(* Method word of a decoded command: probe the candidates with the
   allocation-free in-place compare; [-1] (the fallback row) when none
   match. Probe order equals declaration order, so the scan cost per
   command is unchanged from the hand-rolled chain. *)
let command_id cmd =
  let n = Array.length commands in
  let rec scan i =
    if i >= n then -1
    else
      let name, id = commands.(i) in
      if cmd_is cmd name then id else scan (i + 1)
  in
  scan 0

let exec_get t ~cpu cmd args =
  match args with
  | [ key ] ->
      let entry = find_arg t ~cpu key in
      if entry < 0 then Resp.Null else first_buf t entry
  | _ -> err_unknown ~cpu cmd

let exec_mget t ~cpu _cmd keys =
  Resp.Array
    (List.map
       (fun key ->
         let entry = find_arg t ~cpu key in
         if entry < 0 then Resp.Null else first_buf t entry)
       keys)

let exec_lrange t ~cpu cmd args =
  match args with
  | [ key; _start; _stop ] ->
      (* The experiments query whole lists: LRANGE key 0 -1. *)
      let entry = find_arg t ~cpu key in
      if entry < 0 then Resp.Array []
      else
        Resp.Array
          (List.map
             (fun buf -> Resp.Bulk (Mem.Pinned.Buf.view buf))
             (Kvstore.Store.buffers (Kvstore.Store.value t.store entry)))
  | _ -> err_unknown ~cpu cmd

let exec_set t ~cpu cmd args =
  match args with
  | [ key; Resp.Bulk src ] -> (
      let key = arg_view ~cpu key in
      match Mem.Pinned.Buf.alloc ~cpu t.pool ~len:src.Mem.View.len with
      | buf ->
          Mem.Pinned.Buf.blit_from ~cpu buf ~src ~dst_off:0;
          Kvstore.Store.put ~cpu t.store key.Mem.View.data
            ~off:key.Mem.View.off ~len:key.Mem.View.len
            (Kvstore.Store.Single buf);
          Resp.Simple "OK"
      | exception Mem.Pinned.Out_of_memory _ ->
          Resp.Error "OOM command not allowed")
  | _ -> err_unknown ~cpu cmd

let exec_del t ~cpu _cmd keys =
  let removed =
    List.fold_left
      (fun acc key ->
        let v = arg_view ~cpu key in
        let data = v.Mem.View.data and off = v.Mem.View.off in
        let len = v.Mem.View.len in
        if Kvstore.Store.find ~cpu t.store data ~off ~len < 0 then acc
        else begin
          Kvstore.Store.remove ~cpu t.store data ~off ~len;
          acc + 1
        end)
      0 keys
  in
  Resp.Int removed

let exec_exists t ~cpu _cmd keys =
  Resp.Int
    (List.fold_left
       (fun acc key -> if find_arg t ~cpu key < 0 then acc else acc + 1)
       0 keys)

let exec_strlen t ~cpu cmd args =
  match args with
  | [ key ] ->
      let entry = find_arg t ~cpu key in
      Resp.Int
        (if entry < 0 then 0
         else Kvstore.Store.value_len (Kvstore.Store.value t.store entry))
  | _ -> err_unknown ~cpu cmd

let exec_ping _t ~cpu cmd args =
  match args with [] -> Resp.Simple "PONG" | _ -> err_unknown ~cpu cmd

(* The dispatch table, one row per schema-declared method id. *)
let exec_table =
  let fallback _t ~cpu cmd _args = err_unknown ~cpu cmd in
  let tbl = Rpc.Table.create ~n:Rsvc.method_count ~fallback in
  let set id row = Rpc.Table.set tbl ~id:(Int64.to_int id) row in
  set Rsvc.id_get exec_get;
  set Rsvc.id_mget exec_mget;
  set Rsvc.id_lrange exec_lrange;
  set Rsvc.id_set exec_set;
  set Rsvc.id_del exec_del;
  set Rsvc.id_exists exec_exists;
  set Rsvc.id_strlen exec_strlen;
  set Rsvc.id_ping exec_ping;
  tbl

(* Execute a command against the store; returns the reply as values still
   referencing the store's buffers (no copies yet — the serializer decides
   how the bytes move). *)
let execute t ~cpu cmd args =
  charge_cmd ~cpu cmd;
  (Rpc.Table.dispatch exec_table (command_id cmd)) t ~cpu cmd args

let is_bulk = function Resp.Bulk _ -> true | _ -> false

(* Redis's handwritten serialization, over the integrated stack: the reply
   (values included) is composed directly into a DMA-safe output buffer —
   the paper's baseline integration minimises unnecessary copies, so this
   is a single copy of every value byte. *)
let send_native t ~dst reply =
  let tr = t.rig.Apps.Rig.server_tr in
  let ep = Net.Transport.endpoint tr in
  let headroom = Net.Transport.headroom tr in
  let len = Resp.encoded_len reply in
  let staging = Net.Endpoint.alloc_tx ep ~len:(headroom + len) in
  let w =
    Wire.Cursor.Writer.of_buf ~cpu:(Net.Endpoint.cpu ep) staging ~off:headroom
      ~len
  in
  Resp.encode w reply;
  Net.Transport.send_inline tr ~dst ~head:staging ~zc:[||] ~zc_n:0

let send_cornflakes t ~dst config reply =
  let tr = t.rig.Apps.Rig.server_tr in
  let ep = Net.Transport.endpoint tr in
  let cpu = Net.Endpoint.cpu ep in
  (* Replies become Cornflakes objects; each bulk goes through the hybrid
     CFPtr constructor. *)
  let msg = Wire.Dyn.create Apps.Proto.resp in
  Wire.Dyn.set_int_at msg Apps.Proto.resp_id 0L;
  let add_bulk view =
    Wire.Dyn.append_payload_at msg Apps.Proto.resp_vals
      (Cornflakes.Cf_ptr.make ~cpu config ep view)
  in
  (match reply with
  | Resp.Bulk view -> add_bulk view
  | Resp.Array elems ->
      List.iter
        (fun e -> match e with Resp.Bulk view -> add_bulk view | _ -> ())
        elems
  | Resp.Simple _ | Resp.Error _ | Resp.Int _ | Resp.Null -> ());
  Cornflakes.Send.send_via config tr ~dst msg

(* Redis spends considerable time per command outside serialization:
   command-table dispatch, SDS/robj bookkeeping, LRU/expiry accounting.
   Both serializers pay it equally; it is why serialization gains inside
   Redis are smaller than in the lean custom store (Table 3 vs Table 1). *)
let command_overhead_cycles = 2500.0

(* A request is a non-empty array of bulk strings. A frame that does not
   decode, or decodes to any other shape, is counted and dropped: no reply,
   and no exception escapes into the engine. *)
let handler t ~src buf =
  let cpu = t.rig.Apps.Rig.cpu in
  Memmodel.Cpu.charge cpu Memmodel.Cpu.App command_overhead_cycles;
  (match Resp.decode ~cpu (Mem.Pinned.Buf.view buf) with
  | Resp.Array (cmd :: args as elems) when List.for_all is_bulk elems -> (
      let reply = execute t ~cpu cmd args in
      match t.mode with
      | Native -> send_native t ~dst:src reply
      | Cornflakes_backed config -> send_cornflakes t ~dst:src config reply)
  | _ | (exception Resp.Protocol_error _) ->
      Loadgen.Server.reject t.rig.Apps.Rig.server);
  Mem.Pinned.Buf.decr_ref ~cpu buf

let install rig mode ~workload ~list_values =
  let pool =
    Apps.Rig.data_pool rig
      ~name:("redis-" ^ workload.Workload.Spec.name)
      ~classes:workload.Workload.Spec.pool_classes
  in
  let store =
    Kvstore.Store.create rig.Apps.Rig.space
      ~name:("redis-" ^ workload.Workload.Spec.name)
      ~capacity:workload.Workload.Spec.store_capacity
  in
  workload.Workload.Spec.populate store ~pool;
  let t =
    {
      rig;
      mode;
      store;
      pool;
      workload;
      list_values;
      client_rng = Sim.Rng.split rig.Apps.Rig.rng;
    }
  in
  Loadgen.Server.set_handler rig.Apps.Rig.server (fun ~src buf ->
      handler t ~src buf);
  t

let send_op t op client ~dst ~id =
  ignore id;
  let space = t.rig.Apps.Rig.space in
  let parts =
    match op with
    | Workload.Spec.Get { keys = [ key ] } when t.list_values ->
        [ "LRANGE"; key; "0"; "-1" ]
    | Workload.Spec.Get { keys = [ key ] } -> [ "GET"; key ]
    | Workload.Spec.Get { keys } -> "MGET" :: keys
    | Workload.Spec.Get_index { key; index } ->
        [ "LRANGE"; key; string_of_int index; string_of_int index ]
    | Workload.Spec.Put { key; sizes } ->
        let n = match sizes with [ n ] -> n | _ -> List.fold_left ( + ) 0 sizes in
        [ "SET"; key; Workload.Spec.filler (max 1 n) ]
  in
  Net.Transport.send_string client ~dst
    (Resp.to_string space (Resp.command space parts))

let send_next t client ~dst ~id =
  send_op t (t.workload.Workload.Spec.next t.client_rng) client ~dst ~id

(* Primary-backup replication over the generated [Replica] service
   (replication.proto). Messages are built with the generated typed
   builders on pooled objects and leave through the generated [send];
   frames are read in place through pooled generated readers, and the
   envelope's op word dispatches through one [Rpc.Table] per node. The
   generated server skeleton is not used: it tail-sends a reply at once,
   while a put is answered only after every backup acks it, and a backup
   acks a parked op only when it applies it. *)

module Rep = Replication_rpc
module Msg = Rep.Repmsg
module Op = Rep.Repop
module Svc = Rep.Replica_service
module Kv = Apps.Kv_rpc.Kv_service

let schema = Rep.schema

(* Response words of [RepMsg.op], numbered after the [Replica] method ids
   (request = 0, replicate = 1): a backup's ack of one applied op, and the
   primary's reply to a client. *)
let op_ack = 2L

let op_reply = 3L

let config = Cornflakes.Config.default

(* An out-of-order replicate op parked until its sequence turn: the key and
   value bytes stay in the receive buffer as [Rc_view] slices (one
   reference each) plus the delivery reference on the buffer itself — no
   [Dyn] materialization survives the handler. *)
type parked = {
  pk_key : Wire.Rc_view.t option;
  pk_vals : Wire.Rc_view.t list;
  pk_buf : Mem.Pinned.Buf.t;
}

(* A node's handler for one op word, over the validated envelope. It owns
   the delivery reference on the buffer: it releases it, or keeps it (a
   backup parking an op). *)
type handler = src:int -> Wire.Reader.t -> Mem.Pinned.Buf.t -> unit

type replica = {
  ep : Net.Endpoint.t;
  cpu : Memmodel.Cpu.t;
  server : Loadgen.Server.t;
  store : Kvstore.Store.t;
  pool : Mem.Pinned.Pool.t;
  mutable expected_seq : int64; (* next sequence a backup will apply *)
  ooo : (int64, parked) Hashtbl.t;
  table : handler Rpc.Table.t; (* op word -> handler; unknown words drop *)
  (* Pooled readers, revalidated per delivery. *)
  msg_reader : Wire.Reader.t;
  op_reader : Wire.Reader.t;
  (* Pooled outgoing envelope and nested op, cleared before each build. *)
  out : Msg.t;
  out_op : Op.t;
}

type pending_put = {
  client_src : int;
  client_id : int64;
  mutable unacked : int; (* bit [i]: backup [i] has not acked yet *)
}

type cluster = {
  rig : Apps.Rig.t;
  primary : replica;
  backups : replica list;
  pending : (int64, pending_put) Hashtbl.t;
  mutable next_seq : int64;
  mutable committed : int;
  workload : Workload.Spec.t;
  client_rng : Sim.Rng.t;
  client_msg : Msg.t;
  client_op : Op.t;
  client_reader : Wire.Reader.t; (* client-side id extraction, in place *)
}

(* Backup [i] is endpoint [backup_id i]. *)
let backup_id i = 11 + i

let backup_bit src =
  let i = src - backup_id 0 in
  if i >= 0 && i < Sys.int_size - 1 then 1 lsl i else 0

let primary_store t = t.primary.store

let backup_stores t = List.map (fun b -> b.store) t.backups

let committed t = t.committed

(* --- Shared helpers ----------------------------------------------------- *)

(* Copy op value windows into a replica's own pinned pool and install
   (allocate-and-swap put). The sources are in-place views of the receive
   buffer (or parked [Rc_view]s) — one copy into the store, no
   intermediate. *)
let apply_put_views ~cpu replica ~key views =
  let bufs =
    List.filter_map
      (fun (src : Mem.View.t) ->
        match Mem.Pinned.Buf.alloc ~cpu replica.pool ~len:src.Mem.View.len with
        | buf ->
            Mem.Pinned.Buf.blit_from ~cpu buf ~src ~dst_off:0;
            Some buf
        | exception Mem.Pinned.Out_of_memory _ -> None)
      views
  in
  match bufs with
  | [] -> ()
  | [ one ] -> Kvstore.Store.put ~cpu replica.store ~key (Kvstore.Store.Single one)
  | many -> Kvstore.Store.put ~cpu replica.store ~key (Kvstore.Store.Linked many)

let send ~cpu replica ~dst msg =
  Msg.send ~cpu config (Net.Endpoint.transport replica.ep) ~dst msg

(* Reply to a client; [bufs] go out of the store zero-copy past the
   threshold. *)
let reply ~cpu replica ~dst ~id bufs =
  let msg = replica.out in
  Msg.clear msg;
  Msg.set_id msg id;
  Msg.set_op msg op_reply;
  List.iter
    (fun buf ->
      Msg.add_vals ~cpu config replica.ep msg (Mem.Pinned.Buf.view buf))
    bufs;
  send ~cpu replica ~dst msg

let send_ack ~cpu replica ~dst ~seq =
  let msg = replica.out in
  Msg.clear msg;
  Msg.set_id msg seq;
  Msg.set_op msg op_ack;
  send ~cpu replica ~dst msg

(* --- Backup side --------------------------------------------------------- *)

let rec backup_apply_in_order replica ~src =
  match Hashtbl.find_opt replica.ooo replica.expected_seq with
  | None -> ()
  | Some parked ->
      Hashtbl.remove replica.ooo replica.expected_seq;
      let cpu = replica.cpu in
      let key =
        match parked.pk_key with
        | Some rc -> Wire.Rc_view.to_string ~cpu rc
        | None -> ""
      in
      apply_put_views ~cpu replica ~key
        (List.map Wire.Rc_view.view parked.pk_vals);
      let seq = replica.expected_seq in
      replica.expected_seq <- Int64.add replica.expected_seq 1L;
      (* The store owns its copies now: release the parked slices, then
         the delivery reference — at zero the RX ring slot recycles. *)
      (match parked.pk_key with
      | Some rc -> Wire.Rc_view.release ~cpu ~site:"Replication.apply" rc
      | None -> ());
      List.iter
        (fun rc -> Wire.Rc_view.release ~cpu ~site:"Replication.apply" rc)
        parked.pk_vals;
      Mem.Pinned.Buf.decr_ref ~cpu parked.pk_buf;
      (* Ack only now, when the op is applied. *)
      send_ack ~cpu replica ~dst:src ~seq;
      backup_apply_in_order replica ~src

let handle_replicate replica ~src r buf =
  let cpu = replica.cpu in
  if not (Wire.Reader.present r Msg.idx_body) then
    Mem.Pinned.Buf.decr_ref ~cpu buf
  else
    match Wire.Reader.nested r Msg.idx_body ~into:replica.op_reader with
    | exception Wire.Reader.Invalid _ -> Mem.Pinned.Buf.decr_ref ~cpu buf
    | () ->
        let op = replica.op_reader in
        let seq = Wire.Reader.get_u64_or op Op.idx_seq ~default:(-1L) in
        if seq < replica.expected_seq then begin
          (* Already applied (a duplicate): re-ack idempotently. *)
          send_ack ~cpu replica ~dst:src ~seq;
          Mem.Pinned.Buf.decr_ref ~cpu buf
        end
        else if Hashtbl.mem replica.ooo seq then
          (* A duplicate of a parked op: its ack goes out when it applies. *)
          Mem.Pinned.Buf.decr_ref ~cpu buf
        else begin
          (* Park the op until its turn: key and values stay in the
             receive buffer as refcounted slices; the delivery reference
             on [buf] transfers to the parked record. *)
          let pk_key =
            if Wire.Reader.present op Op.idx_key then
              Some (Wire.Reader.payload_rc ~site:"Replication.park" op Op.idx_key)
            else None
          in
          let pk_vals =
            List.init (Wire.Reader.count_or_zero op Op.idx_vals) (fun j ->
                Wire.Reader.elem_rc ~site:"Replication.park" op Op.idx_vals ~j)
          in
          Hashtbl.replace replica.ooo seq { pk_key; pk_vals; pk_buf = buf };
          backup_apply_in_order replica ~src
        end

(* --- Primary side --------------------------------------------------------- *)

(* Fan a put out to every backup as a nested op. Values go out of the
   primary's freshly installed store value — zero-copy for fields past the
   threshold. *)
let replicate t ~cpu ~seq ~key vals =
  let p = t.primary in
  let env = p.out and op = p.out_op in
  List.iter
    (fun backup ->
      Msg.clear env;
      Op.clear op;
      Msg.set_id env seq;
      Msg.set_op env Svc.id_replicate;
      Op.set_seq op seq;
      Op.set_kind op Kv.id_put;
      Op.set_key ~cpu config p.ep op
        (Mem.View.of_string t.rig.Apps.Rig.space key);
      List.iter
        (fun buf -> Op.add_vals ~cpu config p.ep op (Mem.Pinned.Buf.view buf))
        vals;
      Msg.set_body env (Op.to_dyn op);
      send ~cpu p ~dst:(Net.Endpoint.id backup.ep) env)
    t.backups

let stored_buffers ~cpu replica ~key =
  match Kvstore.Store.get ~cpu replica.store ~key with
  | Some value -> Kvstore.Store.buffers value
  | None -> []

(* One client op over its validated [RepOp] level: the key is hashed
   straight out of the receive buffer, and put values blit from their
   in-place windows into the store — the apply path never materializes a
   [Dyn]. *)
let serve_op t ~cpu ~src ~id op =
  let key =
    if Wire.Reader.present op Op.idx_key then
      Wire.Reader.payload_string op Op.idx_key
    else ""
  in
  let kind = Wire.Reader.get_u64_or op Op.idx_kind ~default:(-1L) in
  if kind = Kv.id_get then
    reply ~cpu t.primary ~dst:src ~id (stored_buffers ~cpu t.primary ~key)
  else if kind = Kv.id_put then begin
    apply_put_views ~cpu t.primary ~key
      (List.init (Wire.Reader.count_or_zero op Op.idx_vals) (fun j ->
           Wire.Reader.elem_view op Op.idx_vals ~j));
    let seq = t.next_seq in
    t.next_seq <- Int64.add t.next_seq 1L;
    if t.backups = [] then begin
      t.committed <- t.committed + 1;
      reply ~cpu t.primary ~dst:src ~id []
    end
    else begin
      Hashtbl.replace t.pending seq
        {
          client_src = src;
          client_id = id;
          unacked = (1 lsl List.length t.backups) - 1;
        };
      replicate t ~cpu ~seq ~key (stored_buffers ~cpu t.primary ~key)
    end
  end
  else reply ~cpu t.primary ~dst:src ~id []

let handle_request t ~src r buf =
  let cpu = t.primary.cpu in
  let id = Wire.Reader.get_u64_or r Msg.idx_id ~default:0L in
  (if
     Wire.Reader.present r Msg.idx_body
     && match Wire.Reader.nested r Msg.idx_body ~into:t.primary.op_reader with
        | () -> true
        | exception Wire.Reader.Invalid _ -> false
   then serve_op t ~cpu ~src ~id t.primary.op_reader
   else reply ~cpu t.primary ~dst:src ~id []);
  Mem.Pinned.Buf.decr_ref ~cpu buf

(* A put commits once every backup has acked it; repeated acks from one
   backup (it re-acks every duplicate replicate) count once. *)
let handle_ack t ~src r buf =
  let cpu = t.primary.cpu in
  (if Wire.Reader.present r Msg.idx_id then
     let seq = Wire.Reader.get_u64 r Msg.idx_id in
     match Hashtbl.find_opt t.pending seq with
     | Some p when p.unacked land backup_bit src <> 0 ->
         p.unacked <- p.unacked land lnot (backup_bit src);
         if p.unacked = 0 then begin
           Hashtbl.remove t.pending seq;
           t.committed <- t.committed + 1;
           reply ~cpu t.primary ~dst:p.client_src ~id:p.client_id []
         end
     | Some _ | None -> () (* repeated ack, or the put already committed *));
  Mem.Pinned.Buf.decr_ref ~cpu buf

(* Every node's receive path: validate the envelope once into the pooled
   reader, then dispatch its op word. *)
let serve replica ~src buf =
  let cpu = replica.cpu in
  let r = replica.msg_reader in
  match Msg.read_folded ~cpu r buf with
  | exception Wire.Reader.Invalid _ -> Mem.Pinned.Buf.decr_ref ~cpu buf
  | () ->
      (* Bound before the call: applying the labelled arguments straight to
         [dispatch]'s polymorphic result allocates on every delivery. *)
      let handle = Rpc.Table.dispatch replica.table (Svc.method_of_reader r) in
      handle ~src r buf

(* --- Construction --------------------------------------------------------- *)

let make_replica rig ~ep ~cpu ~server ~workload ~name =
  let pool =
    Apps.Rig.data_pool rig ~name ~classes:workload.Workload.Spec.pool_classes
  in
  let store =
    Kvstore.Store.create rig.Apps.Rig.space ~name
      ~capacity:workload.Workload.Spec.store_capacity
  in
  workload.Workload.Spec.populate store ~pool;
  let drop ~src:_ _ buf = Mem.Pinned.Buf.decr_ref ~cpu buf in
  {
    ep;
    cpu;
    server;
    store;
    pool;
    expected_seq = 1L;
    ooo = Hashtbl.create 32;
    table = Rpc.Table.create ~n:(Int64.to_int op_reply + 1) ~fallback:drop;
    msg_reader = Msg.reader ();
    op_reader = Op.reader ();
    out = Msg.create ();
    out_op = Op.create ();
  }

let on replica word (h : handler) =
  Rpc.Table.set replica.table ~id:(Int64.to_int word) h

let create rig ~backups ~workload =
  let primary =
    make_replica rig ~ep:rig.Apps.Rig.server_ep ~cpu:rig.Apps.Rig.cpu
      ~server:rig.Apps.Rig.server ~workload ~name:"primary"
  in
  let backup_replicas =
    List.init backups (fun i ->
        let cpu = Memmodel.Cpu.create (Memmodel.Cpu.params rig.Apps.Rig.cpu) in
        let ep =
          Net.Endpoint.create ~cpu rig.Apps.Rig.fabric rig.Apps.Rig.registry
            ~id:(backup_id i)
        in
        let server = Loadgen.Server.create (Net.Endpoint.transport ep) cpu in
        make_replica rig ~ep ~cpu ~server ~workload
          ~name:(Printf.sprintf "backup%d" i))
  in
  let t =
    {
      rig;
      primary;
      backups = backup_replicas;
      pending = Hashtbl.create 64;
      next_seq = 1L;
      committed = 0;
      workload;
      client_rng = Sim.Rng.split rig.Apps.Rig.rng;
      client_msg = Msg.create ();
      client_op = Op.create ();
      client_reader = Msg.reader ();
    }
  in
  on primary Svc.id_request (handle_request t);
  on primary op_ack (handle_ack t);
  List.iter
    (fun replica ->
      on replica Svc.id_replicate (handle_replicate replica);
      Loadgen.Server.set_handler replica.server (serve replica))
    backup_replicas;
  Loadgen.Server.set_handler rig.Apps.Rig.server (serve primary);
  t

(* --- Client side ---------------------------------------------------------- *)

let send_op t op client ~dst ~id =
  let space = t.rig.Apps.Rig.space in
  let msg = t.client_msg and o = t.client_op in
  Msg.clear msg;
  Op.clear o;
  Msg.set_id_int msg id;
  Msg.set_op msg Svc.id_request;
  (match op with
  | Workload.Spec.Get { keys } -> (
      Op.set_kind o Kv.id_get;
      match keys with
      | key :: _ -> Op.set_key_payload o (Wire.Payload.of_string space key)
      | [] -> ())
  | Workload.Spec.Get_index { key; _ } ->
      Op.set_kind o Kv.id_get;
      Op.set_key_payload o (Wire.Payload.of_string space key)
  | Workload.Spec.Put { key; sizes } ->
      Op.set_kind o Kv.id_put;
      Op.set_key_payload o (Wire.Payload.of_string space key);
      List.iter
        (fun n ->
          Op.add_vals_payload o
            (Wire.Payload.of_string space (Workload.Spec.filler (max 1 n))))
        sizes);
  Msg.set_body msg (Op.to_dyn o);
  Msg.send config client ~dst msg;
  Mem.Arena.reset (Net.Transport.arena client)

let send_next t client ~dst ~id =
  send_op t (t.workload.Workload.Spec.next t.client_rng) client ~dst ~id

let parse_id t buf =
  let r = t.client_reader in
  match Msg.read_folded r buf with
  | exception Wire.Reader.Invalid _ -> -1
  | () -> Int64.to_int (Wire.Reader.get_u64_or r Msg.idx_id ~default:(-1L))

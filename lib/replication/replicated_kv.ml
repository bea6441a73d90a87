(* Primary-backup replication over the generated [Replica] service
   (replication.proto). Messages are built with the generated typed
   builders on pooled objects and leave through the generated [send];
   frames are read in place through pooled generated readers, and the
   envelope's op word dispatches through one [Rpc.Table] per node. The
   generated server skeleton is not used: it tail-sends a reply at once,
   while a put is answered only after every backup acks it, and a backup
   acks a parked op only when it applies it.

   State that outlives a delivery lives in id rings ([Sim.Id_ring]) of
   slots built once and reused: the primary's pending puts keyed by
   sequence number (client endpoint, the client id's 8 bytes, unacked
   bits), and each backup's out-of-order ops keyed by sequence number
   (the receive buffer and the frame-relative windows of key and values).
   Put values are copied from the receive window straight into the
   replica's pool ([Pinned.Buf.blit_from_buf]); stored values are read in
   place. An in-order op, which is every op on a lossless fabric, applies
   straight from the reader, taking and releasing the same receive-buffer
   references a parked op does, so the two paths charge alike.

   Ingress: a frame that fails envelope or nested validation, carries an
   op word the node does not serve, or comes from a peer the op may not
   come from (a replicate not from the primary, an ack not from a backup)
   is dropped and counted with [Loadgen.Server.reject], as is a replicate
   whose seq is absent or has bit 63 set. *)

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

(* The value windows of one op, frame-relative, grown on demand. *)
type windows = {
  mutable n : int;
  mutable offs : int array;
  mutable lens : int array;
}

let windows () = { n = 0; offs = [||]; lens = [||] }

(* An out-of-order replicate op parked until its sequence turn. Its key
   and values stay in the receive buffer [frame], which the slot holds one
   reference on per window plus the delivery reference. A slot is built
   by the claim that first needs it, with that claim's buffer; a free
   slot's [frame] is stale and never read. *)
type parked = {
  mutable seq : int; (* -1 while the slot is free *)
  mutable frame : Mem.Pinned.Buf.t;
  mutable key_off : int; (* -1: no key *)
  mutable key_len : int;
  vals : windows;
}

let new_parked frame =
  { seq = -1; frame; key_off = -1; key_len = 0; vals = windows () }

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
  mutable expected_seq : int; (* next sequence a backup will apply *)
  parked : (Mem.Pinned.Buf.t, parked) Sim.Id_ring.t; (* seq -> parked op *)
  table : handler Rpc.Table.t; (* op word -> handler; unknown words drop *)
  (* Pooled readers, revalidated per delivery. *)
  msg_reader : Wire.Reader.t;
  op_reader : Wire.Reader.t;
  (* Pooled outgoing envelope and nested op, cleared before each build. *)
  out : Msg.t;
  out_op : Op.t;
  request_id : Bytes.t; (* the request's id, unboxed *)
  word : Bytes.t; (* a u64 field read out of a frame, unboxed *)
  scratch : windows; (* the value windows of the op being applied *)
}

(* A put awaiting its backups' acks. *)
type pending = {
  mutable pseq : int; (* -1 while the slot is free *)
  mutable client : int; (* the client's endpoint *)
  client_id : Bytes.t; (* the client's request id, echoed bit for bit *)
  mutable unacked : int; (* bit [i]: backup [i] has not acked yet *)
}

let new_pending () =
  { pseq = -1; client = 0; client_id = Bytes.make 8 '\000'; unacked = 0 }

type cluster = {
  rig : Apps.Rig.t;
  primary : replica;
  backups : replica list;
  nbackups : int;
  pending : (unit, pending) Sim.Id_ring.t; (* seq -> pending put *)
  mutable next_seq : int;
  mutable committed : int;
  workload : Workload.Spec.t;
  client_rng : Sim.Rng.t;
  client_msg : Msg.t;
  client_op : Op.t;
  client_reader : Wire.Reader.t; (* client-side id extraction, in place *)
  (* [Workload.Spec.filler] of the longest put value sent so far: every
     shorter filler is a prefix of it. *)
  mutable filler : Bytes.t;
}

(* Backup [i] is endpoint [backup_id i]. *)
let backup_id i = 11 + i

let backup_bit t src =
  let i = src - backup_id 0 in
  if i >= 0 && i < t.nbackups then 1 lsl i else 0

let primary_store t = t.primary.store

let backup_stores t = List.map (fun b -> b.store) t.backups

let backup_servers t = List.map (fun b -> b.server) t.backups

let committed t = t.committed

(* --- Shared helpers ----------------------------------------------------- *)

let reject replica buf =
  Loadgen.Server.reject replica.server;
  Mem.Pinned.Buf.decr_ref ~cpu:replica.cpu buf

(* Field [i] of [r] as a native int, -1 when absent or outside
   [0, max_int] (bit 63 set, which [Int64.to_int] would drop): read
   through [replica.word], so nothing is boxed. *)
let read_int replica r i =
  Wire.Reader.get_u64_into r i replica.word ~default:(-1L);
  let v = Bytes.get_int64_le replica.word 0 in
  if Int64.compare v 0L < 0 then -1 else Int64.to_int v
[@@alloc_free]

(* Room for [n] windows; the old ones are not kept. *)
let grow w n =
  let cap = max 8 (2 * n) in
  w.offs <- Array.make cap 0;
  w.lens <- Array.make cap 0

(* The op's value windows into [w], in order, each slot read charged as
   [Wire.Reader.elem_field]. With [retain], each window takes a reference
   on [buf] as it is read, as an [Rc_view] of it would. *)
let take_vals ~cpu ~retain op buf w =
  let n = Wire.Reader.count_or_zero op Op.idx_vals in
  if n > Array.length w.offs then grow w n;
  for j = 0 to n - 1 do
    let s = Wire.Reader.elem_field op Op.idx_vals ~j in
    if retain then
      Mem.Pinned.Buf.incr_ref ~cpu ~site:"Replication.park" buf;
    Array.unsafe_set w.offs j (Wire.Reader.field_off op s);
    Array.unsafe_set w.lens j (Wire.Reader.field_len op s)
  done;
  w.n <- n
[@@alloc_free]

(* Copy windows [j, w.n) of [frame] into the replica's own pinned pool,
   one buffer each, in order; a window the pool cannot hold is skipped. *)
let rec copy_vals replica frame w ~j =
  if j >= w.n then []
  else
    let len = Array.unsafe_get w.lens j in
    match Mem.Pinned.Buf.alloc ~cpu:replica.cpu replica.pool ~len with
    | buf ->
        Mem.Pinned.Buf.blit_from_buf ~cpu:replica.cpu buf ~src:frame
          ~src_off:(Array.unsafe_get w.offs j) ~len ~dst_off:0;
        buf :: copy_vals replica frame w ~j:(j + 1)
    | exception Mem.Pinned.Out_of_memory _ -> copy_vals replica frame w ~j:(j + 1)

(* Install an op's values under the key window (allocate-and-swap put):
   one copy from the receive buffer into the store, no intermediate. *)
let install replica frame w data ~off ~len =
  match copy_vals replica frame w ~j:0 with
  | [] -> ()
  | [ one ] ->
      Kvstore.Store.put ~cpu:replica.cpu replica.store data ~off ~len
        (Kvstore.Store.Single one)
  | many ->
      Kvstore.Store.put ~cpu:replica.cpu replica.store data ~off ~len
        (Kvstore.Store.Linked many)

let add_val replica msg i buf =
  Wire.Dyn.append_payload_at msg i
    (Cornflakes.Cf_ptr.make_buf ~cpu:replica.cpu config replica.ep buf)

let rec add_val_list replica msg i = function
  | [] -> ()
  | buf :: rest ->
      add_val replica msg i buf;
      add_val_list replica msg i rest

(* Store entry [entry]'s buffers (none when negative), in order, as
   payloads of field [i] of [msg]: zero-copy out of the store past the
   threshold. *)
let add_value replica msg i ~entry =
  if entry >= 0 then
    match Kvstore.Store.value replica.store entry with
    | Kvstore.Store.Single buf -> add_val replica msg i buf
    | Kvstore.Store.Linked bufs -> add_val_list replica msg i bufs
    | Kvstore.Store.Vector bufs ->
        for k = 0 to Array.length bufs - 1 do
          add_val replica msg i bufs.(k)
        done

let send replica ~dst msg =
  Msg.send config (Net.Endpoint.transport replica.ep) ~dst msg

(* Reply to a client with the id in [id]'s 8 bytes and store entry
   [entry]'s value (none when negative). *)
let reply replica ~dst ~id ~entry =
  let msg = replica.out in
  Msg.clear msg;
  Msg.set_id msg (Bytes.get_int64_le id 0);
  Msg.set_op msg op_reply;
  add_value replica (Msg.to_dyn msg) Msg.idx_vals ~entry;
  send replica ~dst msg

let send_ack replica ~dst ~seq =
  let msg = replica.out in
  Msg.clear msg;
  Msg.set_id_int msg seq;
  Msg.set_op msg op_ack;
  send replica ~dst msg

(* --- Backup side --------------------------------------------------------- *)

(* Apply the op at the backup's sequence turn: the key is swept (App),
   the values copied into the store, then the key's, each value's and the
   delivery reference on [frame] are released, and the op is acked. *)
let apply replica frame ~key_off ~key_len w ~src =
  let cpu = replica.cpu in
  if key_off >= 0 then begin
    Memmodel.Cpu.stream cpu Memmodel.Cpu.App
      ~addr:(Mem.Pinned.Buf.addr frame + key_off)
      ~len:key_len;
    install replica frame w
      (Mem.Pinned.Buf.backing frame)
      ~off:(Mem.Pinned.Buf.backing_off frame + key_off)
      ~len:key_len
  end
  else install replica frame w Bytes.empty ~off:0 ~len:0;
  let seq = replica.expected_seq in
  replica.expected_seq <- seq + 1;
  if key_off >= 0 then
    Mem.Pinned.Buf.decr_ref ~cpu ~site:"Replication.apply" frame;
  for _ = 1 to w.n do
    Mem.Pinned.Buf.decr_ref ~cpu ~site:"Replication.apply" frame
  done;
  Mem.Pinned.Buf.decr_ref ~cpu frame;
  (* Ack only now, when the op is applied. *)
  send_ack replica ~dst:src ~seq

let rec apply_parked replica ~src =
  let id = replica.expected_seq in
  if Sim.Id_ring.mem replica.parked ~id then begin
    let p = Sim.Id_ring.get replica.parked ~id in
    apply replica p.frame ~key_off:p.key_off ~key_len:p.key_len p.vals ~src;
    p.seq <- -1;
    apply_parked replica ~src
  end

let handle_replicate replica ~primary ~src r buf =
  if src <> primary || not (Wire.Reader.present r Msg.idx_body) then
    reject replica buf
  else
    match Wire.Reader.nested r Msg.idx_body ~into:replica.op_reader with
    | exception Wire.Reader.Invalid _ -> reject replica buf
    | () ->
        let op = replica.op_reader in
        let seq = read_int replica op Op.idx_seq in
        if seq < 0 then
          (* No seq, or one no primary numbers: not an op. *)
          reject replica buf
        else if seq < replica.expected_seq then begin
          (* Already applied (a duplicate): re-ack idempotently. *)
          send_ack replica ~dst:src ~seq;
          Mem.Pinned.Buf.decr_ref ~cpu:replica.cpu buf
        end
        else if Sim.Id_ring.mem replica.parked ~id:seq then
          (* A duplicate of a parked op: its ack goes out when it applies. *)
          Mem.Pinned.Buf.decr_ref ~cpu:replica.cpu buf
        else begin
          (* The key's slot read and its reference on [buf], as parking
             takes them. *)
          let ks =
            if Wire.Reader.present op Op.idx_key then begin
              let s = Wire.Reader.payload_field op Op.idx_key in
              Mem.Pinned.Buf.incr_ref ~cpu:replica.cpu ~site:"Replication.park"
                buf;
              s
            end
            else -1
          in
          let key_off = if ks < 0 then -1 else Wire.Reader.field_off op ks in
          let key_len = if ks < 0 then 0 else Wire.Reader.field_len op ks in
          if seq = replica.expected_seq then begin
            (* Its turn: apply straight from the reader. *)
            take_vals ~cpu:replica.cpu ~retain:true op buf replica.scratch;
            apply replica buf ~key_off ~key_len replica.scratch ~src;
            apply_parked replica ~src
          end
          else begin
            (* Park the op until its turn: the delivery reference on [buf]
               transfers to the slot. *)
            let p = Sim.Id_ring.claim replica.parked buf ~id:seq in
            take_vals ~cpu:replica.cpu ~retain:true op buf p.vals;
            p.frame <- buf;
            p.key_off <- key_off;
            p.key_len <- key_len;
            p.seq <- seq
          end
        end

(* --- Primary side --------------------------------------------------------- *)

(* Fan a put out to every backup as a nested op. Values go out of the
   primary's freshly installed store value — zero-copy for fields past the
   threshold. The key is read from the request's receive window at a
   freshly reserved address, as many bytes as a copy of it would
   reserve. *)
let rec replicate t ~seq ~entry data ~off ~len = function
  | [] -> ()
  | backup :: rest ->
      let p = t.primary in
      let env = p.out and op = p.out_op in
      Msg.clear env;
      Op.clear op;
      Msg.set_id_int env seq;
      Msg.set_op env Svc.id_replicate;
      Op.set_seq_int op seq;
      Op.set_kind op Kv.id_put;
      Op.set_key ~cpu:p.cpu config p.ep op
        (Mem.View.make
           ~addr:(Mem.Addr_space.reserve t.rig.Apps.Rig.space ~bytes:len)
           ~data ~off ~len);
      add_value p (Op.to_dyn op) Op.idx_vals ~entry;
      Msg.set_body env (Op.to_dyn op);
      send p ~dst:(Net.Endpoint.id backup.ep) env;
      replicate t ~seq ~entry data ~off ~len rest

(* One client op over its validated [RepOp] level: the key is hashed
   straight out of the receive buffer (an absent key reads as the empty
   key), and put values blit from their in-place windows into the store —
   the apply path never materializes a [Dyn]. *)
let serve_op t ~src op buf =
  let p = t.primary in
  let k =
    if Wire.Reader.present op Op.idx_key then
      Wire.Reader.payload_key op Op.idx_key
    else -1
  in
  let data = Wire.Reader.data op in
  let off = if k < 0 then 0 else Wire.Reader.key_off op k in
  let len = if k < 0 then 0 else Wire.Reader.key_len op k in
  Wire.Reader.get_u64_into op Op.idx_kind p.word ~default:(-1L);
  let kind = Bytes.get_int64_le p.word 0 in
  if Int64.equal kind Kv.id_get then
    reply p ~dst:src ~id:p.request_id
      ~entry:(Kvstore.Store.find ~cpu:p.cpu p.store data ~off ~len)
  else if Int64.equal kind Kv.id_put then begin
    take_vals ~cpu:p.cpu ~retain:false op buf p.scratch;
    install p buf p.scratch data ~off ~len;
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    if t.nbackups = 0 then begin
      t.committed <- t.committed + 1;
      reply p ~dst:src ~id:p.request_id ~entry:(-1)
    end
    else begin
      let q = Sim.Id_ring.claim t.pending () ~id:seq in
      q.pseq <- seq;
      q.client <- src;
      Bytes.blit p.request_id 0 q.client_id 0 8;
      q.unacked <- (1 lsl t.nbackups) - 1;
      let entry = Kvstore.Store.find ~cpu:p.cpu p.store data ~off ~len in
      replicate t ~seq ~entry data ~off ~len t.backups
    end
  end
  else reply p ~dst:src ~id:p.request_id ~entry:(-1)

let handle_request t ~src r buf =
  let p = t.primary in
  Wire.Reader.get_u64_into r Msg.idx_id p.request_id ~default:0L;
  (if not (Wire.Reader.present r Msg.idx_body) then
     reply p ~dst:src ~id:p.request_id ~entry:(-1)
   else
     match Wire.Reader.nested r Msg.idx_body ~into:p.op_reader with
     | () -> serve_op t ~src p.op_reader buf
     | exception Wire.Reader.Invalid _ -> Loadgen.Server.reject p.server);
  Mem.Pinned.Buf.decr_ref ~cpu:p.cpu buf

(* A put commits once every backup has acked it; repeated acks from one
   backup (it re-acks every duplicate replicate) count once. *)
let handle_ack t ~src r buf =
  let p = t.primary in
  let bit = backup_bit t src in
  if bit = 0 then Loadgen.Server.reject p.server
  else begin
    (* An ack for no pending put (it committed) is dropped. *)
    let seq = read_int p r Msg.idx_id in
    if Sim.Id_ring.mem t.pending ~id:seq then begin
      let q = Sim.Id_ring.get t.pending ~id:seq in
      if q.unacked land bit <> 0 then begin
        q.unacked <- q.unacked land lnot bit;
        if q.unacked = 0 then begin
          q.pseq <- -1;
          t.committed <- t.committed + 1;
          reply p ~dst:q.client ~id:q.client_id ~entry:(-1)
        end
      end
    end
  end;
  Mem.Pinned.Buf.decr_ref ~cpu:p.cpu buf

(* Every node's receive path: validate the envelope once into the pooled
   reader, then dispatch its op word. *)
let serve replica ~src buf =
  let r = replica.msg_reader in
  match Msg.read_folded r buf with
  | exception Wire.Reader.Invalid _ -> reject replica buf
  | () ->
      (* The op word is read unboxed, charged as the generated skeleton's
         [Server.method_of] charges it in place.
         The handler is bound before the call: applying the labelled
         arguments straight to [dispatch]'s polymorphic result allocates on
         every delivery. *)
      let handle = Rpc.Table.dispatch replica.table (read_int replica r Msg.idx_op) in
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
  (* An op word this node does not serve. *)
  let drop ~src:_ _ buf =
    Loadgen.Server.reject server;
    Mem.Pinned.Buf.decr_ref ~cpu buf
  in
  {
    ep;
    cpu;
    server;
    store;
    pool;
    expected_seq = 1;
    parked =
      Sim.Id_ring.create ~make:new_parked
        ~occupied:(fun p -> p.seq >= 0)
        ~id_of:(fun p -> p.seq);
    table = Rpc.Table.create ~n:(Int64.to_int op_reply + 1) ~fallback:drop;
    msg_reader = Msg.reader ~cpu ();
    op_reader = Op.reader ~cpu ();
    out = Msg.create ();
    out_op = Op.create ();
    request_id = Bytes.make 8 '\000';
    word = Bytes.make 8 '\000';
    scratch = windows ();
  }

let on replica word (h : handler) =
  Rpc.Table.set replica.table ~id:(Int64.to_int word) h

let create rig ~backups ~workload =
  if backups < 0 || backups >= Sys.int_size - 1 then
    invalid_arg "Replicated_kv.create: backup count out of range";
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
        let server = Loadgen.Server.create (Net.Endpoint.transport ep) in
        make_replica rig ~ep ~cpu ~server ~workload
          ~name:(Printf.sprintf "backup%d" i))
  in
  let t =
    {
      rig;
      primary;
      backups = backup_replicas;
      nbackups = backups;
      pending =
        Sim.Id_ring.create ~make:new_pending
          ~occupied:(fun q -> q.pseq >= 0)
          ~id_of:(fun q -> q.pseq);
      next_seq = 1;
      committed = 0;
      workload;
      client_rng = Sim.Rng.split rig.Apps.Rig.rng;
      client_msg = Msg.create ();
      client_op = Op.create ();
      client_reader = Msg.reader ~cpu:Memmodel.Cpu.none ();
      filler = Bytes.empty;
    }
  in
  on primary Svc.id_request (handle_request t);
  on primary op_ack (handle_ack t);
  let primary_id = Net.Endpoint.id primary.ep in
  List.iter
    (fun replica ->
      on replica Svc.id_replicate (handle_replicate replica ~primary:primary_id);
      Loadgen.Server.set_handler replica.server (serve replica))
    backup_replicas;
  Loadgen.Server.set_handler rig.Apps.Rig.server (serve primary);
  t

(* --- Client side ---------------------------------------------------------- *)

(* A string as an unowned [Literal] at a freshly reserved address — the
   reservation [Wire.Payload.of_string] makes, without its copy. The
   serializer only reads a literal's bytes. *)
let literal t s =
  let len = String.length s in
  Wire.Payload.Literal
    (Mem.View.make
       ~addr:(Mem.Addr_space.reserve t.rig.Apps.Rig.space ~bytes:len)
       ~data:(Bytes.unsafe_of_string s) ~off:0 ~len)

(* [Workload.Spec.filler n] as a literal: a prefix of the shared filler,
   which grows to the longest value asked for. *)
let filler t n =
  if n > Bytes.length t.filler then
    t.filler <-
      Bytes.of_string
        (Workload.Spec.filler (max n (2 * Bytes.length t.filler)));
  Wire.Payload.Literal
    (Mem.View.make
       ~addr:(Mem.Addr_space.reserve t.rig.Apps.Rig.space ~bytes:n)
       ~data:t.filler ~off:0 ~len:n)

let rec add_fillers t o = function
  | [] -> ()
  | n :: rest ->
      Op.add_vals_payload o (filler t (max 1 n));
      add_fillers t o rest

let send_op t op client ~dst ~id =
  let msg = t.client_msg and o = t.client_op in
  Msg.clear msg;
  Op.clear o;
  Msg.set_id_int msg id;
  Msg.set_op msg Svc.id_request;
  (match op with
  | Workload.Spec.Get { keys } -> (
      Op.set_kind o Kv.id_get;
      match keys with
      | key :: _ -> Op.set_key_payload o (literal t key)
      | [] -> ())
  | Workload.Spec.Get_index { key; _ } ->
      Op.set_kind o Kv.id_get;
      Op.set_key_payload o (literal t key)
  | Workload.Spec.Put { key; sizes } ->
      Op.set_kind o Kv.id_put;
      Op.set_key_payload o (literal t key);
      add_fillers t o sizes);
  Msg.set_body msg (Op.to_dyn o);
  Msg.send config client ~dst msg;
  Mem.Arena.reset (Net.Transport.arena client)

let send_next t client ~dst ~id =
  send_op t (t.workload.Workload.Spec.next t.client_rng) client ~dst ~id

let parse_id t buf =
  let r = t.client_reader in
  match Msg.read_folded r buf with
  | exception Wire.Reader.Invalid _ -> -1
  | () -> Wire.Reader.get_int_or r Msg.idx_id ~default:(-1)

(* Front-end dispatcher: routes client requests across the shard set by
   consistent hash, fans multi-gets out as per-shard sub-requests, and
   reassembles the partial responses into one client response without
   copying payload bytes.

   Ownership contract across the fan-out (what RefSan checks dynamically):

   - A partial response is validated once in place ([Wire.Reader]).
     Retaining a value into its pending slot takes one [Wire.Rc_view]
     reference on the rx buffer — the slot owns exactly that reference,
     and the rx buffer stays pinned until assembly.
   - Assembly moves each slot payload into the egress response; the send
     path consumes one reference per zero-copy payload (released on NIC
     completion / cumulative ACK), so handing the slot's reference to the
     stack is a transfer, not a leak.
   - Sub-threshold values are demoted to arena copies at assembly through
     [Cornflakes.Cf_ptr.of_buf] at the threshold of a learning policy
     cell kept per source shard, which learns from both arms. The slot
     reference is dropped at demotion.

   Pending fan-outs are the only state that lives across handler
   invocations. They live in an id ring ([Sim.Id_ring]) keyed by fan-out
   id, in slots built once and reused: per-key owner and rank arrays, the
   retained payloads ([Wire.Payload.empty] while vacant) and per-shard
   group state. Routing, grouping, slot fill and assembly are plain loops
   over those arrays, so a fan-out allocates only the reference handles
   it hands to the send path. Everything else (arena copies, reader
   state) dies with the invocation, which is exactly the
   [Loadgen.Server] arena-reset contract. *)

(* How a method word shapes the fan-out: whether per-key response slots
   are kept for reassembly (gets) and whether request values ride along
   in the sub-requests (puts). The rows are bound from the schema-declared
   [Kv] service method ids once at create; the hot path consults the
   branchless table instead of comparing op constants. Unknown method
   words take the fallback (get-shaped) row, preserving the historical
   default. *)
type strategy = { keep_slots : bool; forward_vals : bool }

(* Per-shard group state of a fan-out. *)
let no_group = 0

let awaiting_group = 1

let arrived_group = 2

(* One pending fan-out. Keys are numbered in request order; shards by
   their dense index. The group of shard [sh] is the keys whose owner is
   [sh], in request order: key [j] is the [rank.(j)]-th key of its group,
   and so the [rank.(j)]-th value of that shard's partial response. *)
type fanout = {
  mutable fid : int; (* -1 while the slot is free *)
  mutable client : int;
  client_id : Bytes.t; (* the client's 8-byte id, echoed bit for bit *)
  mutable keep : bool; (* values are retained for assembly (gets) *)
  mutable nkeys : int;
  mutable owners : int array; (* per key *)
  mutable rank : int array; (* per key *)
  mutable payloads : Wire.Payload.t array; (* per key *)
  order : int array; (* the groups' shards, in order of their first key *)
  mutable ngroups : int;
  mutable awaiting : int; (* groups whose partial has not arrived *)
  state : int array; (* per shard: no_group / awaiting_group / arrived_group *)
  glen : int array; (* per shard: keys in its group *)
}

let new_fanout nshards =
  {
    fid = -1;
    client = 0;
    client_id = Bytes.make 8 '\000';
    keep = false;
    nkeys = 0;
    owners = [||];
    rank = [||];
    payloads = [||];
    order = Array.make nshards 0;
    ngroups = 0;
    awaiting = 0;
    state = Array.make nshards no_group;
    glen = Array.make nshards 0;
  }

(* Exactly-once audit counters: the cluster experiment asserts the
   invariants at quiesce (started = completed, no duplicates, no orphans,
   every client id answered exactly once, table drained). *)
type audit = {
  fanouts_started : int;
  fanouts_completed : int;
  partials : int;
  dup_partials : int;
  orphan_partials : int;
  misaligned : int;
  in_flight : int;
  max_completions_per_id : int;
}

type t = {
  id : int;
  cpu : Memmodel.Cpu.t;
  ep : Net.Endpoint.t;
  tr : Net.Transport.t;
  server : Loadgen.Server.t;
  backend : Apps.Backend.t;
  ring : Ring.t;
  shard_ids : int array; (* dense index -> shard endpoint id *)
  shard_of_ep : int array; (* endpoint id -> dense index, -1 if no shard *)
  adaptives : Cornflakes.Adaptive.t array; (* policy cell per shard index *)
  subreq_scratch : Wire.Dyn.t;
  resp_scratch : Wire.Dyn.t;
  (* Pooled in-place readers: requests and partial responses are
     validated once and accessed in the receive buffer; retained values
     become [Wire.Rc_view] slices, no [Dyn] in between. *)
  req_reader : Wire.Reader.t;
  partial_reader : Wire.Reader.t;
  strategies : strategy Rpc.Table.t; (* method word -> fan-out shape *)
  fanouts : (int, fanout) Sim.Id_ring.t; (* fan-out id -> pending fan-out *)
  word : Bytes.t; (* the request's op or the partial's fan-out id, unboxed *)
  mutable next_fanout : int;
  mutable started : int;
  mutable completed : int;
  mutable partials : int;
  mutable dup_partials : int;
  mutable orphan_partials : int;
  mutable misaligned : int;
  mutable zc_forwards : int;
  mutable copy_forwards : int;
  (* Completions per client id: bit [i] of [answered] records id [i]'s
     first response, for ids in [0, 2^audit_bits); [repeats] holds the
     count of every id answered twice or outside that range. *)
  mutable answered : Bytes.t;
  repeats : (int64, int) Hashtbl.t;
  mutable max_completions : int;
}

(* Request ids are numbered from 1, so the bit set spans the ids seen;
   the bound keeps an outlier id from growing it past 32 MB. *)
let audit_bits = 28

let fresh_fanout t =
  let id = t.next_fanout in
  t.next_fanout <- id + 1;
  id

(* Move a retained slot payload into the egress response: at the source
   shard's learning cell's threshold it keeps the pinned reference
   (handed to the stack) or copies into the arena and drops it, and the
   cell learns from either. *)
let forward t ~shard_idx (p : Wire.Payload.t) =
  match p with
  | Wire.Payload.Zero_copy _ -> (
      match
        Cornflakes.Cf_ptr.of_buf ~cpu:t.cpu ~site:"Dispatcher.demote"
          t.adaptives.(shard_idx) t.ep p
      with
      | Wire.Payload.Zero_copy _ as zc ->
          t.zc_forwards <- t.zc_forwards + 1;
          zc
      | copied ->
          t.copy_forwards <- t.copy_forwards + 1;
          copied)
  | other -> other

(* --- Exactly-once audit ------------------------------------------------- *)

let grow_answered t byte =
  let b = Bytes.make (max (byte + 1) (2 * Bytes.length t.answered)) '\000' in
  Bytes.blit t.answered 0 b 0 (Bytes.length t.answered);
  t.answered <- b

(* An id answered before, or outside the bit set: [seen] is the response
   the bit set already holds for it. *)
let note_repeat t cid ~seen =
  let id = Bytes.get_int64_le cid 0 in
  let n =
    1 + match Hashtbl.find_opt t.repeats id with Some n -> n | None -> seen
  in
  Hashtbl.replace t.repeats id n;
  if n > t.max_completions then t.max_completions <- n

let record_completion t cid =
  let id = Bytes.get_int64_le cid 0 in
  if Int64.shift_right_logical id audit_bits = 0L then begin
    let i = Int64.to_int id in
    let byte = i lsr 3 and bit = 1 lsl (i land 7) in
    if byte >= Bytes.length t.answered then grow_answered t byte;
    let b = Bytes.get_uint8 t.answered byte in
    if b land bit = 0 then begin
      Bytes.set_uint8 t.answered byte (b lor bit);
      if t.max_completions < 1 then t.max_completions <- 1
    end
    else note_repeat t cid ~seen:1
  end
  else note_repeat t cid ~seen:0
[@@alloc_free]

(* --- Client request: route, group, fan out ----------------------------- *)

let grow_keys f n =
  let cap = max n (2 * Array.length f.owners) in
  f.owners <- Array.make cap 0;
  f.rank <- Array.make cap 0;
  f.payloads <- Array.make cap Wire.Payload.empty

(* Route each key and group the keys by owner. Keys are hashed straight
   out of the receive buffer ([Reader.elem_key] charges the App sweep
   over the key, then the route pays one hash op). *)
let route t f r ~nkeys =
  if nkeys > Array.length f.owners then grow_keys f nkeys;
  f.nkeys <- nkeys;
  f.ngroups <- 0;
  for j = 0 to nkeys - 1 do
    let k = Wire.Reader.elem_key r Apps.Proto.req_keys ~j in
    Memmodel.Cpu.charge_op t.cpu Memmodel.Cpu.App Memmodel.Cpu.Hash_op;
    let sh =
      t.shard_of_ep.(Ring.owner_window t.ring (Wire.Reader.data r)
                       ~off:(Wire.Reader.key_off r k)
                       ~len:(Wire.Reader.key_len r k))
    in
    if f.state.(sh) = no_group then begin
      f.state.(sh) <- awaiting_group;
      f.order.(f.ngroups) <- sh;
      f.ngroups <- f.ngroups + 1
    end;
    f.owners.(j) <- sh;
    f.rank.(j) <- f.glen.(sh);
    f.glen.(sh) <- f.glen.(sh) + 1
  done
[@@alloc_free]

(* One sub-request: each forwarded key/value becomes an [Rc_view] slice
   whose reference transfers to the sub-request's send path — the request
   bytes are never re-materialized. *)
let send_group t f r ~fid ~sh ~nvals =
  let sub = t.subreq_scratch in
  Wire.Dyn.clear sub;
  Wire.Dyn.set_int_of_int sub Apps.Proto.req_id fid;
  Wire.Dyn.set_int_at sub Apps.Proto.req_op (Bytes.get_int64_le t.word 0);
  if Wire.Reader.present r Apps.Proto.req_index then
    Wire.Dyn.set_int_of_reader sub Apps.Proto.req_index r Apps.Proto.req_index;
  for j = 0 to f.nkeys - 1 do
    if f.owners.(j) = sh then
      Wire.Dyn.append_payload_at sub Apps.Proto.req_keys
        (Wire.Rc_view.to_payload
           (Wire.Reader.elem_rc ~site:"Dispatcher.retain" r Apps.Proto.req_keys
              ~j))
  done;
  for j = 0 to nvals - 1 do
    Wire.Dyn.append_payload_at sub Apps.Proto.req_vals
      (Wire.Rc_view.to_payload
         (Wire.Reader.elem_rc ~site:"Dispatcher.retain" r Apps.Proto.req_vals ~j))
  done;
  t.backend.Apps.Backend.send t.tr ~dst:t.shard_ids.(sh) sub

(* Free a slot for the next fan-out id it maps to. *)
let release_fanout f =
  for g = 0 to f.ngroups - 1 do
    let sh = f.order.(g) in
    f.state.(sh) <- no_group;
    f.glen.(sh) <- 0
  done;
  f.ngroups <- 0;
  f.fid <- -1
[@@alloc_free]

let handle_request_zc t ~src r =
  let fid = fresh_fanout t in
  let f = Sim.Id_ring.claim t.fanouts (Array.length t.shard_ids) ~id:fid in
  Wire.Reader.get_u64_into r Apps.Proto.req_id f.client_id ~default:(-1L);
  Wire.Reader.get_u64_into r Apps.Proto.req_op t.word
    ~default:Apps.Proto.op_get;
  let st =
    Rpc.Table.dispatch t.strategies (Int64.to_int (Bytes.get_int64_le t.word 0))
  in
  route t f r ~nkeys:(Wire.Reader.count_or_zero r Apps.Proto.req_keys);
  t.started <- t.started + 1;
  if f.ngroups = 0 then begin
    let resp = t.resp_scratch in
    Wire.Dyn.clear resp;
    Wire.Dyn.set_int_at resp Apps.Proto.resp_id
      (Bytes.get_int64_le f.client_id 0);
    t.backend.Apps.Backend.send t.tr ~dst:src resp;
    t.completed <- t.completed + 1;
    record_completion t f.client_id
  end
  else begin
    f.fid <- fid;
    f.client <- src;
    f.keep <- st.keep_slots;
    f.awaiting <- f.ngroups;
    let nvals =
      if st.forward_vals then Wire.Reader.count_or_zero r Apps.Proto.req_vals
      else 0
    in
    for g = 0 to f.ngroups - 1 do
      send_group t f r ~fid ~sh:f.order.(g) ~nvals
    done
  end

(* --- Partial response: slot fill, assemble on last arrival -------------- *)

(* Retain shard [sh]'s values into their slots: each is an [Rc_view]
   slice of the shard's response frame (the one allocation here) — the
   slot owns exactly one reference and the RX ring slot stays pinned until
   assembly hands it to the egress send. *)
let fill t f r ~sh =
  let nvals = Wire.Reader.count_or_zero r Apps.Proto.resp_vals in
  if f.keep then begin
    if nvals <> f.glen.(sh) then t.misaligned <- t.misaligned + 1;
    for j = 0 to f.nkeys - 1 do
      if f.owners.(j) = sh && f.rank.(j) < nvals then
        f.payloads.(j) <-
          Wire.Rc_view.to_payload
            (Wire.Reader.elem_rc ~site:"Dispatcher.retain" r
               Apps.Proto.resp_vals ~j:f.rank.(j))
    done
  end
[@@alloc_free]

(* A slot whose value never arrived (a short partial) is left out. *)
let assemble t f =
  let resp = t.resp_scratch in
  Wire.Dyn.clear resp;
  Wire.Dyn.set_int_at resp Apps.Proto.resp_id (Bytes.get_int64_le f.client_id 0);
  for j = 0 to f.nkeys - 1 do
    let p = f.payloads.(j) in
    if p != Wire.Payload.empty then begin
      Wire.Dyn.append_payload_at resp Apps.Proto.resp_vals
        (forward t ~shard_idx:f.owners.(j) p);
      f.payloads.(j) <- Wire.Payload.empty
    end
  done;
  t.backend.Apps.Backend.send t.tr ~dst:f.client resp;
  t.completed <- t.completed + 1;
  record_completion t f.client_id;
  release_fanout f

let handle_partial_zc t ~src r =
  t.partials <- t.partials + 1;
  Wire.Reader.get_u64_into r Apps.Proto.resp_id t.word ~default:(-1L);
  let fid = Int64.to_int (Bytes.get_int64_le t.word 0) in
  if not (Sim.Id_ring.mem t.fanouts ~id:fid) then
    t.orphan_partials <- t.orphan_partials + 1
  else begin
    let f = Sim.Id_ring.get t.fanouts ~id:fid in
    let sh = t.shard_of_ep.(src) in
    let s = f.state.(sh) in
    if s = no_group then t.orphan_partials <- t.orphan_partials + 1
    else if s = arrived_group then t.dup_partials <- t.dup_partials + 1
    else begin
      f.state.(sh) <- arrived_group;
      fill t f r ~sh;
      f.awaiting <- f.awaiting - 1;
      if f.awaiting = 0 then assemble t f
    end
  end

let is_shard t src =
  src >= 0 && src < Array.length t.shard_of_ep && t.shard_of_ep.(src) >= 0

(* A frame that fails validation is counted and dropped: nothing is
   forwarded or answered. *)
let handler t ~src buf =
  let partial = is_shard t src in
  let r = if partial then t.partial_reader else t.req_reader in
  (match Wire.Reader.validate r buf with
  | exception Wire.Reader.Invalid _ -> Loadgen.Server.reject t.server
  | () ->
      if partial then handle_partial_zc t ~src r
      else handle_request_zc t ~src r);
  Mem.Pinned.Buf.decr_ref ~cpu:t.cpu ~site:"Dispatcher.handler_done" buf

let create ~fabric ~registry ~kind ~backend ~queue_limit ~id ~ring ~shard_ids
    =
  let cpu = Memmodel.Cpu.create Memmodel.Params.default in
  let ep = Net.Endpoint.create ~cpu fabric registry ~id in
  let tr = Apps.Rig.transport_for ~kind ep in
  let server = Loadgen.Server.create ~queue_limit tr in
  let shard_ids = Array.of_list shard_ids in
  let shard_of_ep =
    Array.make (1 + Array.fold_left max (-1) shard_ids) (-1)
  in
  Array.iteri (fun i sid -> shard_of_ep.(sid) <- i) shard_ids;
  let t =
    {
      id;
      cpu;
      ep;
      tr;
      server;
      backend;
      ring;
      shard_ids;
      shard_of_ep;
      (* Seeded low: forwarding an already-pinned rx window has near-zero
         marginal cost, so the estimator starts zc-happy and the copy arm
         earns its keep from observations. *)
      adaptives =
        Array.map
          (fun _ -> Cornflakes.Adaptive.create ~initial:64 ())
          shard_ids;
      subreq_scratch = Wire.Dyn.create Apps.Proto.req;
      resp_scratch = Wire.Dyn.create Apps.Proto.resp;
      req_reader = Wire.Reader.create ~cpu Apps.Proto.req;
      partial_reader = Wire.Reader.create ~cpu Apps.Proto.resp;
      strategies =
        (let get_shaped = { keep_slots = true; forward_vals = false } in
         let tbl =
           Rpc.Table.create ~n:Apps.Kv_rpc.Kv_service.method_count
             ~fallback:get_shaped
         in
         Rpc.Table.set tbl
           ~id:(Int64.to_int Apps.Kv_rpc.Kv_service.id_get)
           get_shaped;
         Rpc.Table.set tbl
           ~id:(Int64.to_int Apps.Kv_rpc.Kv_service.id_get_index)
           get_shaped;
         Rpc.Table.set tbl
           ~id:(Int64.to_int Apps.Kv_rpc.Kv_service.id_put)
           { keep_slots = false; forward_vals = true };
         tbl);
      fanouts =
        Sim.Id_ring.create ~make:new_fanout
          ~occupied:(fun f -> f.fid >= 0)
          ~id_of:(fun f -> f.fid);
      word = Bytes.make 8 '\000';
      next_fanout = 1;
      started = 0;
      completed = 0;
      partials = 0;
      dup_partials = 0;
      orphan_partials = 0;
      misaligned = 0;
      zc_forwards = 0;
      copy_forwards = 0;
      answered = Bytes.make 64 '\000';
      repeats = Hashtbl.create 16;
      max_completions = 0;
    }
  in
  Loadgen.Server.set_handler server (fun ~src buf -> handler t ~src buf);
  (* Open the dispatcher->shard connections up front: establishment is a
     topology-build cost, not a measured-window cost (no-op on UDP). *)
  Array.iter (fun sid -> Net.Transport.connect tr ~peer:sid) shard_ids;
  t

let id t = t.id

let server t = t.server

let endpoint t = t.ep

let transport t = t.tr

let cpu t = t.cpu

let ring t = t.ring

let adaptive t ~shard_idx = t.adaptives.(shard_idx)

let zc_forwards t = t.zc_forwards

let copy_forwards t = t.copy_forwards

(* Always 0: every retained payload is an [Rc_view] of the receive buffer,
   so nothing is ever stashed; kept for the benchmark's cluster counters. *)
let stash_copies (_ : t) = 0

(* A fan-out is in flight from its start to its completion; a request
   with no keys starts and completes at once. *)
let audit t =
  {
    fanouts_started = t.started;
    fanouts_completed = t.completed;
    partials = t.partials;
    dup_partials = t.dup_partials;
    orphan_partials = t.orphan_partials;
    misaligned = t.misaligned;
    in_flight = t.started - t.completed;
    max_completions_per_id = t.max_completions;
  }

let exactly_once a =
  a.fanouts_started = a.fanouts_completed
  && a.dup_partials = 0 && a.orphan_partials = 0 && a.misaligned = 0
  && a.in_flight = 0
  && a.max_completions_per_id <= 1

(* Tier-wide view: sums are exact; [max_completions_per_id] is exact as
   long as each client id reaches one dispatcher (the topology pins
   connections, so it does). *)
let merge_audits audits =
  List.fold_left
    (fun acc a ->
      {
        fanouts_started = acc.fanouts_started + a.fanouts_started;
        fanouts_completed = acc.fanouts_completed + a.fanouts_completed;
        partials = acc.partials + a.partials;
        dup_partials = acc.dup_partials + a.dup_partials;
        orphan_partials = acc.orphan_partials + a.orphan_partials;
        misaligned = acc.misaligned + a.misaligned;
        in_flight = acc.in_flight + a.in_flight;
        max_completions_per_id =
          max acc.max_completions_per_id a.max_completions_per_id;
      })
    {
      fanouts_started = 0;
      fanouts_completed = 0;
      partials = 0;
      dup_partials = 0;
      orphan_partials = 0;
      misaligned = 0;
      in_flight = 0;
      max_completions_per_id = 0;
    }
    audits

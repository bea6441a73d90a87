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
     [Cornflakes.Adaptive.of_buf] — [Cf_ptr]'s threshold compare at the
     per-shard learned threshold, which learns from both arms. The slot
     reference is dropped at demotion.

   Pending slots are the only state that lives across handler
   invocations; everything else (arena copies, reader state) dies with
   the invocation, which is exactly the [Loadgen.Server] arena-reset
   contract. *)

(* How a method word shapes the fan-out: whether per-key response slots
   are kept for reassembly (gets) and whether request values ride along
   in the sub-requests (puts). The rows are bound from the schema-declared
   [Kv] service method ids once at create; the hot path consults the
   branchless table instead of comparing op constants. Unknown method
   words take the fallback (get-shaped) row, preserving the historical
   default. *)
type strategy = { keep_slots : bool; forward_vals : bool }

type slot = { owner : int; mutable payload : Wire.Payload.t option }

type group = {
  g_shard : int;
  g_slots : int array; (* slot indices, in sub-request key order *)
  mutable g_arrived : bool;
}

type pending = {
  client : int;
  client_id : int64;
  slots : slot array; (* one per requested key, request order *)
  groups : group list;
  mutable awaiting : int;
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
  shard_index : (int, int) Hashtbl.t; (* shard endpoint id -> dense index *)
  adaptives : Cornflakes.Adaptive.t array; (* per shard index *)
  subreq_scratch : Wire.Dyn.t;
  resp_scratch : Wire.Dyn.t;
  (* Pooled in-place readers: requests and partial responses are
     validated once and accessed in the receive buffer; retained values
     become [Wire.Rc_view] slices, no [Dyn] in between. *)
  req_reader : Wire.Reader.t;
  partial_reader : Wire.Reader.t;
  strategies : strategy Rpc.Table.t; (* method word -> fan-out shape *)
  pending : (int, pending) Hashtbl.t; (* fan-out id -> pending *)
  mutable next_fanout : int;
  mutable started : int;
  mutable completed : int;
  mutable partials : int;
  mutable dup_partials : int;
  mutable orphan_partials : int;
  mutable misaligned : int;
  mutable zc_forwards : int;
  mutable copy_forwards : int;
  completions : (int64, int) Hashtbl.t; (* client id -> responses sent *)
}

let fresh_fanout t =
  let id = t.next_fanout in
  t.next_fanout <- id + 1;
  id

(* Move a retained slot payload into the egress response: the per-source-
   shard adaptive estimator keeps the pinned reference (handed to the
   stack) or copies into the arena and drops it, and learns from either. *)
let forward t ~shard_idx (p : Wire.Payload.t) =
  match p with
  | Wire.Payload.Zero_copy _ -> (
      match
        Cornflakes.Adaptive.of_buf ~cpu:t.cpu ~site:"Dispatcher.demote"
          t.adaptives.(shard_idx) t.ep p
      with
      | Wire.Payload.Zero_copy _ as zc ->
          t.zc_forwards <- t.zc_forwards + 1;
          zc
      | copied ->
          t.copy_forwards <- t.copy_forwards + 1;
          copied)
  | other -> other

let record_completion t client_id =
  Hashtbl.replace t.completions client_id
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.completions client_id))

(* --- Client request: route, group, fan out ----------------------------- *)

(* Client request over the validated reader: keys are hashed straight out
   of the receive buffer for routing ([Reader.elem_key] charges the App
   sweep over the key, then the route pays one hash op), and each
   forwarded key/value becomes an [Rc_view] slice whose reference
   transfers to the sub-request's send path — the request bytes are never
   re-materialized. *)
let handle_request_zc t ~src r =
  let client_id = Wire.Reader.get_u64_or r Apps.Proto.req_id ~default:(-1L) in
  let op =
    Wire.Reader.get_u64_or r Apps.Proto.req_op ~default:Apps.Proto.op_get
  in
  let st = Rpc.Table.dispatch t.strategies (Int64.to_int op) in
  let nkeys = Wire.Reader.count_or_zero r Apps.Proto.req_keys in
  let owners =
    Array.init nkeys (fun j ->
        let k = Wire.Reader.elem_key r Apps.Proto.req_keys ~j in
        Memmodel.Cpu.charge_op t.cpu Memmodel.Cpu.App Memmodel.Cpu.Hash_op;
        Ring.owner_window t.ring (Wire.Reader.data r)
          ~off:(Wire.Reader.key_off r k) ~len:(Wire.Reader.key_len r k))
  in
  let slots = Array.map (fun o -> { owner = o; payload = None }) owners in
  let groups =
    let acc = ref [] in
    Array.iteri
      (fun i s ->
        match List.find_opt (fun (sh, _) -> sh = s.owner) !acc with
        | Some (_, idxs) -> idxs := i :: !idxs
        | None -> acc := !acc @ [ (s.owner, ref [ i ]) ])
      slots;
    List.map
      (fun (sh, idxs) ->
        { g_shard = sh; g_slots = Array.of_list (List.rev !idxs); g_arrived = false })
      !acc
  in
  let fid = fresh_fanout t in
  let p =
    {
      client = src;
      client_id;
      slots = (if st.keep_slots then slots else [||]);
      groups;
      awaiting = List.length groups;
    }
  in
  if p.awaiting = 0 then begin
    let resp = t.resp_scratch in
    Wire.Dyn.clear resp;
    Wire.Dyn.set_int_at resp Apps.Proto.resp_id client_id;
    t.backend.Apps.Backend.send t.tr ~dst:src resp;
    t.started <- t.started + 1;
    t.completed <- t.completed + 1;
    record_completion t client_id
  end
  else begin
    Hashtbl.replace t.pending fid p;
    t.started <- t.started + 1;
    let nvals =
      if st.forward_vals then Wire.Reader.count_or_zero r Apps.Proto.req_vals
      else 0
    in
    List.iter
      (fun g ->
        let sub = t.subreq_scratch in
        Wire.Dyn.clear sub;
        Wire.Dyn.set_int_of_int sub Apps.Proto.req_id fid;
        Wire.Dyn.set_int_at sub Apps.Proto.req_op op;
        if Wire.Reader.present r Apps.Proto.req_index then
          Wire.Dyn.set_int_of_reader sub Apps.Proto.req_index r
            Apps.Proto.req_index;
        Array.iter
          (fun slot_idx ->
            let rc =
              Wire.Reader.elem_rc ~site:"Dispatcher.retain" r
                Apps.Proto.req_keys ~j:slot_idx
            in
            Wire.Dyn.append_payload_at sub Apps.Proto.req_keys
              (Wire.Rc_view.to_payload rc))
          g.g_slots;
        for j = 0 to nvals - 1 do
          let rc =
            Wire.Reader.elem_rc ~site:"Dispatcher.retain" r Apps.Proto.req_vals
              ~j
          in
          Wire.Dyn.append_payload_at sub Apps.Proto.req_vals
            (Wire.Rc_view.to_payload rc)
        done;
        t.backend.Apps.Backend.send t.tr ~dst:g.g_shard sub)
      groups
  end

(* --- Partial response: slot fill, assemble on last arrival -------------- *)

let assemble t fid p =
  Hashtbl.remove t.pending fid;
  let resp = t.resp_scratch in
  Wire.Dyn.clear resp;
  Wire.Dyn.set_int_at resp Apps.Proto.resp_id p.client_id;
  Array.iter
    (fun s ->
      match s.payload with
      | Some payload ->
          let shard_idx =
            Option.value ~default:0 (Hashtbl.find_opt t.shard_index s.owner)
          in
          Wire.Dyn.append_payload_at resp Apps.Proto.resp_vals
            (forward t ~shard_idx payload);
          s.payload <- None
      | None -> ())
    p.slots;
  t.backend.Apps.Backend.send t.tr ~dst:p.client resp;
  t.completed <- t.completed + 1;
  record_completion t p.client_id

(* Partial response over the validated reader: each value retained into its
   pending slot is an [Rc_view] slice of the shard's response frame — the
   slot owns exactly one reference and the RX ring slot stays pinned until
   assembly hands it to the egress send. *)
let handle_partial_zc t ~src r =
  t.partials <- t.partials + 1;
  let fid =
    Int64.to_int (Wire.Reader.get_u64_or r Apps.Proto.resp_id ~default:(-1L))
  in
  match Hashtbl.find_opt t.pending fid with
  | None -> t.orphan_partials <- t.orphan_partials + 1
  | Some p -> (
      match List.find_opt (fun g -> g.g_shard = src) p.groups with
      | None -> t.orphan_partials <- t.orphan_partials + 1
      | Some g when g.g_arrived -> t.dup_partials <- t.dup_partials + 1
      | Some g ->
          g.g_arrived <- true;
          let nvals = Wire.Reader.count_or_zero r Apps.Proto.resp_vals in
          if nvals <> Array.length g.g_slots && p.slots <> [||] then
            t.misaligned <- t.misaligned + 1;
          Array.iteri
            (fun pos slot_idx ->
              if pos < nvals && p.slots <> [||] then begin
                let rc =
                  Wire.Reader.elem_rc ~site:"Dispatcher.retain" r
                    Apps.Proto.resp_vals ~j:pos
                in
                p.slots.(slot_idx).payload <- Some (Wire.Rc_view.to_payload rc)
              end)
            g.g_slots;
          p.awaiting <- p.awaiting - 1;
          if p.awaiting = 0 then assemble t fid p)

(* A frame that fails validation is counted and dropped: nothing is
   forwarded or answered. *)
let handler t ~src buf =
  let partial = Hashtbl.mem t.shard_index src in
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
  let shard_index = Hashtbl.create 16 in
  List.iteri (fun i sid -> Hashtbl.replace shard_index sid i) shard_ids;
  let t =
    {
      id;
      cpu;
      ep;
      tr;
      server;
      backend;
      ring;
      shard_index;
      (* Seeded low: forwarding an already-pinned rx window has near-zero
         marginal cost, so the estimator starts zc-happy and the copy arm
         earns its keep from observations. *)
      adaptives =
        Array.init (List.length shard_ids) (fun _ ->
            Cornflakes.Adaptive.create ~initial:64 ());
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
      pending = Hashtbl.create 4096;
      next_fanout = 1;
      started = 0;
      completed = 0;
      partials = 0;
      dup_partials = 0;
      orphan_partials = 0;
      misaligned = 0;
      zc_forwards = 0;
      copy_forwards = 0;
      completions = Hashtbl.create 4096;
    }
  in
  Loadgen.Server.set_handler server (fun ~src buf -> handler t ~src buf);
  (* Open the dispatcher->shard connections up front: establishment is a
     topology-build cost, not a measured-window cost (no-op on UDP). *)
  List.iter (fun sid -> Net.Transport.connect tr ~peer:sid) shard_ids;
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

let audit t =
  {
    fanouts_started = t.started;
    fanouts_completed = t.completed;
    partials = t.partials;
    dup_partials = t.dup_partials;
    orphan_partials = t.orphan_partials;
    misaligned = t.misaligned;
    in_flight = Hashtbl.length t.pending;
    max_completions_per_id =
      Hashtbl.fold (fun _ n acc -> max n acc) t.completions 0;
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

(* Tests for the sharded cluster (lib/cluster): consistent-hash ring
   properties (QCheck), dispatcher fan-out semantics end to end, and the
   adaptive-estimator hooks on the dispatcher's send path. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

(* A scattered key universe: multiplying by a Knuth constant decorrelates
   the sequential indices so the test exercises the hash, not a pattern. *)
let key_universe n =
  List.init n (fun i -> Printf.sprintf "user:%08x" (i * 2654435761 land 0xFFFFFFF))

(* --- ring: unit tests --------------------------------------------------- *)

let test_ring_membership_order_irrelevant () =
  let a = Cluster.Ring.create ~vnodes:64 [ 1; 2; 3; 4 ] in
  let b = Cluster.Ring.create ~vnodes:64 [ 4; 2; 1; 3 ] in
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "owner of %s" k)
        (Cluster.Ring.owner a k) (Cluster.Ring.owner b k))
    (key_universe 512)

let test_ring_remove_only_moves_orphans () =
  let ring = Cluster.Ring.create ~vnodes:128 [ 1; 2; 3; 4 ] in
  let ring' = Cluster.Ring.remove_shard ring 3 in
  List.iter
    (fun k ->
      let before = Cluster.Ring.owner ring k in
      let after = Cluster.Ring.owner ring' k in
      if before <> 3 then
        Alcotest.(check int) (Printf.sprintf "%s stays put" k) before after
      else if after = 3 then
        Alcotest.failf "%s still owned by removed shard" k)
    (key_universe 2048)

(* --- ring: QCheck properties -------------------------------------------- *)

(* Ownership balance: with >= 64 vnodes per shard every shard's share of a
   large key universe is within a constant factor of fair. *)
let prop_balance =
  QCheck.Test.make ~count:30 ~name:"ring ownership balance at 64+ vnodes"
    QCheck.(pair (int_range 2 8) (int_range 64 192))
    (fun (n, vnodes) ->
      let ring = Cluster.Ring.create ~vnodes (List.init n (fun i -> i + 1)) in
      let keys = key_universe 8192 in
      let mean = float_of_int (List.length keys) /. float_of_int n in
      List.for_all
        (fun (_, c) ->
          float_of_int c <= 1.6 *. mean && float_of_int c >= 0.45 *. mean)
        (Cluster.Ring.census ring keys))

(* Routing reads keys in place: the owner of a key window inside a larger
   buffer (as the dispatcher sees it in a receive buffer) is the owner of
   the key string (as placement computes it). *)
let prop_owner_window =
  let ring = Cluster.Ring.create ~vnodes:64 [ 1; 2; 3; 4; 5 ] in
  QCheck.Test.make ~count:500 ~name:"ring owner over bytes = owner over string"
    QCheck.(triple small_string (string_of_size Gen.(0 -- 64)) small_string)
    (fun (before, key, after) ->
      let data = Bytes.of_string (before ^ key ^ after) in
      Cluster.Ring.owner_window ring data ~off:(String.length before)
        ~len:(String.length key)
      = Cluster.Ring.owner ring key)

(* Routing a key in place allocates nothing: the 64-bit hash stays
   unboxed. Over 10^4 lookups only the [Gc.minor_words] readings may. *)
let test_owner_window_allocates_nothing () =
  let ring = Cluster.Ring.create ~vnodes:128 [ 1; 2; 3; 4 ] in
  let data = Bytes.of_string "tw:0000000000000042" in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Cluster.Ring.owner_window ring data ~off:0 ~len:19
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "same owner every time"
    (10_000 * Cluster.Ring.owner ring "tw:0000000000000042")
    !acc;
  if words > 8.0 then Alcotest.failf "%.0f minor words over 10^4 lookups" words

(* Minimal remapping: growing an n-shard ring moves keys only onto the new
   shard, and no more than ~2x the ideal 1/(n+1) fraction of them. *)
let prop_minimal_remapping =
  QCheck.Test.make ~count:30 ~name:"ring add_shard moves ~1/(n+1), only to it"
    QCheck.(int_range 2 8)
    (fun n ->
      let ring = Cluster.Ring.create ~vnodes:128 (List.init n (fun i -> i + 1)) in
      let ring' = Cluster.Ring.add_shard ring (n + 1) in
      let keys = key_universe 8192 in
      let moved = ref 0 in
      List.iter
        (fun k ->
          let before = Cluster.Ring.owner ring k in
          let after = Cluster.Ring.owner ring' k in
          if before <> after then begin
            if after <> n + 1 then
              QCheck.Test.fail_reportf "%s moved %d->%d, not to the new shard"
                k before after;
            incr moved
          end)
        keys;
      let ideal = float_of_int (List.length keys) /. float_of_int (n + 1) in
      let m = float_of_int !moved in
      if m > 2.0 *. ideal then
        QCheck.Test.fail_reportf "moved %d keys, ideal %.0f" !moved ideal;
      if m < 0.25 *. ideal then
        QCheck.Test.fail_reportf "moved only %d keys, ideal %.0f" !moved ideal;
      true)

(* --- dispatcher fan-out, end to end ------------------------------------- *)

let n_keys = 256

let make_topo ?transport ?(shards = 2) () =
  let backend = Apps.Backend.cornflakes () in
  let topo =
    Cluster.Topology.create ?transport ~seed:11 ~n_clients:2 ~shards ~n_keys
      ~backend ()
  in
  (topo, backend)

let payload_strings msg field =
  List.filter_map
    (function
      | Wire.Dyn.Payload p ->
          Some (Mem.View.to_string (Wire.Payload.view p))
      | _ -> None)
    (Wire.Dyn.get_list msg field)

(* Send one request through the dispatcher and run the engine dry;
   returns (response id, vals) as the client saw them. *)
let roundtrip topo backend ~op ~keys ?(vals = []) ~id () =
  let client = List.hd (Cluster.Topology.clients topo) in
  let space = Mem.Registry.space (Cluster.Topology.registry topo) in
  let got = ref None in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      let msg = backend.Apps.Backend.recv client Apps.Proto.resp buf in
      let rid =
        Int64.to_int (Option.value ~default:(-1L) (Wire.Dyn.get_int msg "id"))
      in
      got := Some (rid, payload_strings msg "vals");
      Wire.Dyn.release ~cpu:none msg;
      Mem.Pinned.Buf.decr_ref ~cpu:none buf;
      Mem.Arena.reset (Net.Transport.arena client));
  let msg = Wire.Dyn.create Apps.Proto.req in
  Wire.Dyn.set_int msg "id" (Int64.of_int id);
  Wire.Dyn.set_int msg "op" op;
  List.iter
    (fun k ->
      Wire.Dyn.append msg "keys"
        (Wire.Dyn.Payload (Wire.Payload.of_string space k)))
    keys;
  List.iter
    (fun v ->
      Wire.Dyn.append msg "vals"
        (Wire.Dyn.Payload (Wire.Payload.of_string space v)))
    vals;
  backend.Apps.Backend.send client
    ~dst:Cluster.Topology.dispatcher_id msg;
  Wire.Dyn.release ~cpu:none msg;
  Mem.Arena.reset (Net.Transport.arena client);
  Sim.Engine.run_all (Cluster.Topology.engine topo);
  !got

let stored_value topo key =
  let sid = Cluster.Ring.owner (Cluster.Topology.ring topo) key in
  let shard =
    List.find (fun s -> Cluster.Shard.id s = sid)
      (Cluster.Topology.shard_list topo)
  in
  match Kvstore.Store.get (Cluster.Shard.store shard) ~key with
  | Some v ->
      String.concat ""
        (List.map
           (fun b -> Mem.View.to_string (Mem.Pinned.Buf.view b))
           (Kvstore.Store.buffers v))
  | None -> "<missing>"

(* Pick one planted key per shard so a multi-get is guaranteed to fan out
   across both ownership domains. *)
let keys_spanning topo =
  let ring = Cluster.Topology.ring topo in
  let find sid =
    let rec go rank =
      if rank > n_keys then Alcotest.failf "no key owned by shard %d" sid
      else
        let k = Cluster.Plan.key_of rank in
        if Cluster.Ring.owner ring k = sid then k else go (rank + 1)
    in
    go 1
  in
  (find 1, find 2)

let test_fanout_exactly_once () =
  let topo, backend = make_topo () in
  let k1, k2 = keys_spanning topo in
  let miss = Cluster.Plan.key_of 9_999 in
  (* Duplicate key and a miss in one batch: positional alignment must
     survive both. *)
  let keys = [ k1; k2; k1; miss ] in
  (match roundtrip topo backend ~op:Apps.Proto.op_get ~keys ~id:77 () with
  | None -> Alcotest.fail "no response"
  | Some (rid, vals) ->
      Alcotest.(check int) "response id" 77 rid;
      Alcotest.(check int) "one value per key" 4 (List.length vals);
      let v1 = stored_value topo k1 and v2 = stored_value topo k2 in
      Alcotest.(check string) "slot 0" v1 (List.nth vals 0);
      Alcotest.(check string) "slot 1" v2 (List.nth vals 1);
      Alcotest.(check string) "dup slot" v1 (List.nth vals 2);
      Alcotest.(check string) "miss slot is empty" "" (List.nth vals 3));
  let audit =
    Cluster.Dispatcher.merge_audits
      (List.map Cluster.Dispatcher.audit
         (Cluster.Topology.dispatcher_list topo))
  in
  Alcotest.(check bool) "exactly once" true
    (Cluster.Dispatcher.exactly_once audit);
  Alcotest.(check int) "one fan-out" 1 audit.Cluster.Dispatcher.fanouts_started;
  Alcotest.(check int) "both shards answered" 2
    audit.Cluster.Dispatcher.partials

let test_put_then_get_via_dispatcher () =
  let topo, backend = make_topo () in
  let k1, _ = keys_spanning topo in
  let fresh = String.make 100 'Q' in
  (match
     roundtrip topo backend ~op:Apps.Proto.op_put ~keys:[ k1 ]
       ~vals:[ fresh ] ~id:5 ()
   with
  | Some (5, _) -> ()
  | Some (other, _) -> Alcotest.failf "put acked with id %d" other
  | None -> Alcotest.fail "put not acknowledged");
  Alcotest.(check string) "store updated through dispatcher" fresh
    (stored_value topo k1);
  match roundtrip topo backend ~op:Apps.Proto.op_get ~keys:[ k1 ] ~id:6 () with
  | Some (6, [ v ]) -> Alcotest.(check string) "get sees the put" fresh v
  | _ -> Alcotest.fail "bad get response"

let test_fanout_over_tcp () =
  let topo, backend = make_topo ~transport:`Tcp () in
  let k1, k2 = keys_spanning topo in
  match roundtrip topo backend ~op:Apps.Proto.op_get ~keys:[ k1; k2 ] ~id:9 () with
  | Some (9, [ v1; v2 ]) ->
      Alcotest.(check string) "tcp slot 0" (stored_value topo k1) v1;
      Alcotest.(check string) "tcp slot 1" (stored_value topo k2) v2
  | _ -> Alcotest.fail "bad tcp fan-out response"

(* The satellite contract for Cornflakes.Adaptive: the dispatcher's send
   path must feed the per-shard estimators, so observation counts advance
   as responses assemble. *)
let test_adaptive_observations_advance () =
  let topo, backend = make_topo () in
  let d = Cluster.Topology.dispatcher topo in
  let obs () =
    let acc = ref 0 in
    for i = 0 to 1 do
      acc :=
        !acc
        + Cornflakes.Adaptive.observations (Cluster.Dispatcher.adaptive d ~shard_idx:i)
    done;
    !acc
  in
  Alcotest.(check int) "no observations before traffic" 0 (obs ());
  let k1, k2 = keys_spanning topo in
  for id = 1 to 8 do
    match roundtrip topo backend ~op:Apps.Proto.op_get ~keys:[ k1; k2 ] ~id () with
    | Some _ -> ()
    | None -> Alcotest.fail "lost response"
  done;
  Alcotest.(check bool) "observations advanced" true (obs () > 0);
  Alcotest.(check int) "every forward observed (zc + copy)" (obs ())
    (Cluster.Dispatcher.zc_forwards d + Cluster.Dispatcher.copy_forwards d)

(* Dispatchers and shards read requests in place, so the topology only
   accepts the Cornflakes wire format. *)
let test_rejects_baseline_backend () =
  Alcotest.check_raises "protobuf rejected"
    (Invalid_argument
       "Topology.create: the cluster needs the Cornflakes wire format")
    (fun () ->
      ignore
        (Cluster.Topology.create ~seed:11 ~n_clients:1 ~shards:2 ~n_keys
           ~backend:Apps.Backend.protobuf ()))

let suite =
  [
    Alcotest.test_case "ring membership order irrelevant" `Quick
      test_ring_membership_order_irrelevant;
    Alcotest.test_case "ring remove only moves orphans" `Quick
      test_ring_remove_only_moves_orphans;
    QCheck_alcotest.to_alcotest prop_balance;
    QCheck_alcotest.to_alcotest prop_minimal_remapping;
    QCheck_alcotest.to_alcotest prop_owner_window;
    Alcotest.test_case "ring owner over bytes allocates nothing" `Quick
      test_owner_window_allocates_nothing;
    Alcotest.test_case "fan-out exactly once" `Quick test_fanout_exactly_once;
    Alcotest.test_case "put then get via dispatcher" `Quick
      test_put_then_get_via_dispatcher;
    Alcotest.test_case "fan-out over tcp" `Quick test_fanout_over_tcp;
    Alcotest.test_case "adaptive observations advance" `Quick
      test_adaptive_observations_advance;
    Alcotest.test_case "topology rejects a baseline backend" `Quick
      test_rejects_baseline_backend;
  ]

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
let roundtrip ?space ?(dst = Cluster.Topology.dispatcher_id) topo backend ~op
    ~keys ?(vals = []) ~id () =
  let client = List.hd (Cluster.Topology.clients topo) in
  let space =
    match space with
    | Some s -> s
    | None -> Mem.Registry.space (Cluster.Topology.registry topo)
  in
  let got = ref None in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      let msg = Test_env.decode backend client Apps.Proto.resp buf in
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
  backend.Apps.Backend.send client ~dst msg;
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

(* A datagram that is not a Cornflakes frame is dropped by the dispatcher:
   its delivery reference is released, it is counted once, nothing is
   forwarded, and the requests after it are served as before. *)
let test_dispatcher_drops_invalid_frame () =
  Test_faults.with_san (fun () ->
      let topo, backend = make_topo ~transport:`Udp () in
      let client = List.hd (Cluster.Topology.clients topo) in
      let server =
        Cluster.Dispatcher.server (Cluster.Topology.dispatcher topo)
      in
      Net.Transport.send_string client ~dst:Cluster.Topology.dispatcher_id
        (String.make 64 '\xff');
      Sim.Engine.run_all (Cluster.Topology.engine topo);
      Alcotest.(check int) "rejected once" 1 (Loadgen.Server.rejected server);
      Alcotest.(check (list int)) "nothing forwarded" [ 0; 0 ]
        (Cluster.Topology.per_shard_served topo);
      let k1, k2 = keys_spanning topo in
      (match
         roundtrip topo backend ~op:Apps.Proto.op_get ~keys:[ k1; k2 ] ~id:9 ()
       with
      | Some (9, vals) ->
          Alcotest.(check (list string)) "later request served"
            [ stored_value topo k1; stored_value topo k2 ]
            vals
      | _ -> Alcotest.fail "later request unanswered");
      Alcotest.(check int) "still rejected once" 1
        (Loadgen.Server.rejected server);
      Sim.Engine.quiesce (Cluster.Topology.engine topo);
      Alcotest.(check int) "refsan leaks" 0
        (List.length (Sanitizer.Refsan.leaks ()));
      Alcotest.(check int) "refsan hazards" 0
        (Sanitizer.Refsan.hazard_count ()))

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


(* A miss answers the shared empty payload: positional alignment holds,
   misses reserve no simulated address space, and a shard answers a
   request of four misses with no more minor words than one of no keys.
   The client builds its keys in a space of its own, so only the
   cluster's space is watched. *)
let test_misses_are_empty_and_reserve_nothing () =
  let topo, backend = make_topo () in
  let space = Mem.Registry.space (Cluster.Topology.registry topo) in
  let client_space = Mem.Addr_space.create () in
  let k1, k2 = keys_spanning topo in
  let miss i = Cluster.Plan.key_of (10_000 + i) in
  (match
     roundtrip ~space:client_space topo backend ~op:Apps.Proto.op_get
       ~keys:[ miss 0; k1; miss 1; k2; miss 2 ] ~id:3 ()
   with
  | Some (3, vals) ->
      Alcotest.(check (list string)) "empty value at each miss"
        [ ""; stored_value topo k1; ""; stored_value topo k2; "" ]
        vals
  | _ -> Alcotest.fail "bad mixed hit/miss response");
  let used = Mem.Addr_space.used space in
  for i = 0 to 249 do
    match
      roundtrip ~space:client_space topo backend ~op:Apps.Proto.op_get
        ~keys:(List.init 4 (fun j -> miss (4 * i + j)))
        ~id:(100 + i) ()
    with
    | Some (_, [ ""; ""; ""; "" ]) -> ()
    | _ -> Alcotest.failf "bad all-miss response %d" i
  done;
  Alcotest.(check int) "misses counted" 1_003
    (List.fold_left
       (fun acc s -> acc + Cluster.Shard.misses s)
       0
       (Cluster.Topology.shard_list topo));
  Alcotest.(check int) "1,000 misses reserve no address space" used
    (Mem.Addr_space.used space);
  let shard = List.hd (Cluster.Topology.shard_list topo) in
  let words = ref 0.0 in
  Loadgen.Server.set_handler (Cluster.Shard.server shard) (fun ~src buf ->
      let w0 = Gc.minor_words () in
      Cluster.Shard.handler shard ~src buf;
      words := !words +. (Gc.minor_words () -. w0));
  let words_per_request keys =
    let ask id =
      match
        roundtrip ~space:client_space ~dst:(Cluster.Shard.id shard) topo
          backend ~op:Apps.Proto.op_get ~keys ~id ()
      with
      | Some (rid, vals) when rid = id && List.length vals = List.length keys
        ->
          ()
      | _ -> Alcotest.failf "bad direct response %d" id
    in
    for id = 1 to 100 do
      ask id
    done;
    words := 0.0;
    for id = 1 to 1_000 do
      ask id
    done;
    !words /. 1_000.0
  in
  let none_ = words_per_request [] in
  let misses = words_per_request (List.init 4 miss) in
  if misses > none_ +. 0.5 then
    Alcotest.failf "4 misses cost the shard %.1f words, no keys %.1f" misses
      none_

(* The client's response parser returns -1 for a frame that fails
   validation, and parses the next valid reply as before. *)
let test_parse_id_rejects_garbled_replies () =
  let topo, _ = make_topo () in
  let space = Mem.Addr_space.create () in
  let reply =
    let msg = Wire.Dyn.create Apps.Proto.resp in
    Wire.Dyn.set_int msg "id" 4242L;
    Wire.Dyn.append msg "vals"
      (Wire.Dyn.Payload (Wire.Payload.of_string space "value"));
    Test_reader.serialize_string msg
  in
  let parse s = Cluster.Topology.parse_id topo (Test_fuzz.make_buf s) in
  Alcotest.(check int) "64 bytes of 0xff" (-1) (parse (String.make 64 '\xff'));
  Alcotest.(check int) "reply cut one byte short" (-1)
    (parse (String.sub reply 0 (String.length reply - 1)));
  Alcotest.(check int) "next valid reply" 4242 (parse reply)

(* --- dispatcher fan-out table against a model --------------------------- *)

(* A dispatcher whose shards are bare endpoints: the test sees every
   sub-request and answers it itself, so it picks the order, number and
   shape of the partial responses. *)
type harness = {
  engine : Sim.Engine.t;
  lit_space : Mem.Addr_space.t; (* the test's own payloads *)
  backend : Apps.Backend.t;
  disp : Cluster.Dispatcher.t;
  ring : Cluster.Ring.t;
  shard_trs : (int * Net.Transport.t) list;
  client : Net.Transport.t;
  subreqs : (int * int * string list) Queue.t; (* fan-out id, shard, keys *)
  replies : (int64 * string list) Queue.t; (* client id, values *)
}

let make_harness ~shards =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let registry = Mem.Registry.create (Mem.Addr_space.create ()) in
  let backend = Apps.Backend.cornflakes () in
  let shard_ids = List.init shards (fun i -> i + 1) in
  let ring = Cluster.Ring.create ~vnodes:64 shard_ids in
  let disp =
    Cluster.Dispatcher.create ~fabric ~registry ~kind:`Udp ~backend
      ~queue_limit:1_000_000 ~id:Cluster.Topology.dispatcher_id ~ring
      ~shard_ids
  in
  let transport id =
    Apps.Rig.transport_for ~kind:`Udp
      (Net.Endpoint.create ~cpu:none fabric registry ~id)
  in
  let subreqs = Queue.create () and replies = Queue.create () in
  let on_frame tr desc f ~src:_ buf =
    let msg = Test_env.decode backend tr desc buf in
    f (Option.value ~default:(-1L) (Wire.Dyn.get_int msg "id")) msg;
    Wire.Dyn.release ~cpu:none msg;
    Mem.Pinned.Buf.decr_ref ~cpu:none buf;
    Mem.Arena.reset (Net.Transport.arena tr)
  in
  let shard_trs =
    List.map
      (fun sid ->
        let tr = transport sid in
        Net.Transport.set_rx tr
          (on_frame tr Apps.Proto.req (fun id msg ->
               Queue.add
                 (Int64.to_int id, sid, payload_strings msg "keys")
                 subreqs));
        (sid, tr))
      shard_ids
  in
  let client = transport Cluster.Topology.client_base in
  Net.Transport.set_rx client
    (on_frame client Apps.Proto.resp (fun id msg ->
         Queue.add (id, payload_strings msg "vals") replies));
  {
    engine;
    lit_space = Mem.Addr_space.create ();
    backend;
    disp;
    ring;
    shard_trs;
    client;
    subreqs;
    replies;
  }

let h_send h tr msg =
  h.backend.Apps.Backend.send tr ~dst:Cluster.Topology.dispatcher_id msg;
  Wire.Dyn.release ~cpu:none msg;
  Mem.Arena.reset (Net.Transport.arena tr);
  Sim.Engine.run_all h.engine

let append_strings h msg field l =
  List.iter
    (fun v ->
      Wire.Dyn.append msg field
        (Wire.Dyn.Payload (Wire.Payload.of_string h.lit_space v)))
    l

let h_request h ~id keys =
  let msg = Wire.Dyn.create Apps.Proto.req in
  Wire.Dyn.set_int msg "id" id;
  Wire.Dyn.set_int msg "op" Apps.Proto.op_get;
  append_strings h msg "keys" keys;
  h_send h h.client msg

let h_partial h ~fid ~shard vals =
  let msg = Wire.Dyn.create Apps.Proto.resp in
  Wire.Dyn.set_int msg "id" (Int64.of_int fid);
  append_strings h msg "vals" vals;
  h_send h (List.assoc shard h.shard_trs) msg

(* Key [i] of a 12-key universe and its value: lengths straddle the
   adaptive threshold, so forwards go both zero-copy and copied. *)
let fk i = Printf.sprintf "key-%02d" i

let value_lens = [| 0; 1; 8; 40; 63; 64; 65; 100; 200; 300; 0; 600 |]

let fv key =
  let i = int_of_string (String.sub key 4 2) in
  String.make value_lens.(i) (Char.chr (97 + i))

(* Answer every sub-request seen so far in full. *)
let answer_all h =
  while not (Queue.is_empty h.subreqs) do
    let fid, shard, keys = Queue.pop h.subreqs in
    h_partial h ~fid ~shard (List.map fv keys)
  done

let check_reply h ~id expect =
  match Queue.take_opt h.replies with
  | Some (rid, vals) ->
      Alcotest.(check int64) "client id echoed bit for bit" id rid;
      Alcotest.(check (list string)) "values in request order" expect vals
  | None -> Alcotest.failf "no reply to %Ld" id

(* The client id is echoed exactly for any 64-bit value, on the fan-out
   path and on the no-key path, and the audit counts responses per id. *)
let test_completion_audit_ids () =
  let keys = [ fk 1; fk 2; fk 3 ] in
  let ask h id =
    h_request h ~id keys;
    answer_all h;
    check_reply h ~id (List.map fv keys)
  in
  let h = make_harness ~shards:2 in
  let audit () = Cluster.Dispatcher.audit h.disp in
  List.iter (ask h) [ 0L; -1L; Int64.max_int; Int64.shift_left 1L 40 ];
  h_request h ~id:Int64.min_int [];
  check_reply h ~id:Int64.min_int [];
  Alcotest.(check int) "one response per id" 1
    (audit ()).Cluster.Dispatcher.max_completions_per_id;
  Alcotest.(check bool) "exactly once" true
    (Cluster.Dispatcher.exactly_once (audit ()));
  ask h 0L;
  Alcotest.(check int) "id 0 answered twice" 2
    (audit ()).Cluster.Dispatcher.max_completions_per_id;
  Alcotest.(check bool) "no longer exactly once" false
    (Cluster.Dispatcher.exactly_once (audit ()));
  let h = make_harness ~shards:2 in
  List.iter (ask h) [ Int64.shift_left 1L 40; Int64.shift_left 1L 40 ];
  Alcotest.(check int) "2^40 answered twice" 2
    (Cluster.Dispatcher.audit h.disp).Cluster.Dispatcher.max_completions_per_id

(* A partial for a finished fan-out whose ring slot now holds a later
   fan-out (ids 1 and 65 share a slot of the 64-slot ring) is an orphan,
   and the later fan-out completes as if it had not arrived. *)
let test_stale_partial_on_reused_slot () =
  let h = make_harness ~shards:1 in
  let keys = [ fk 3; fk 7 ] in
  h_request h ~id:1L keys;
  let stale = Queue.peek h.subreqs in
  answer_all h;
  check_reply h ~id:1L (List.map fv keys);
  for id = 2 to 64 do
    h_request h ~id:(Int64.of_int id) keys;
    answer_all h;
    check_reply h ~id:(Int64.of_int id) (List.map fv keys)
  done;
  h_request h ~id:65L keys;
  let fid, shard, _ = stale in
  h_partial h ~fid ~shard [ "stale"; "stale" ];
  let a = Cluster.Dispatcher.audit h.disp in
  Alcotest.(check int) "stale partial is an orphan" 1
    a.Cluster.Dispatcher.orphan_partials;
  Alcotest.(check int) "fan-out 65 still in flight" 1 a.Cluster.Dispatcher.in_flight;
  Alcotest.(check bool) "no reply yet" true (Queue.is_empty h.replies);
  answer_all h;
  check_reply h ~id:65L (List.map fv keys)

(* Operations on the fan-out table. Indices pick among the candidates at
   the time the operation runs. *)
type fop =
  | Request of int list (* key indices, duplicates allowed *)
  | Deliver of int (* a pending group's partial, in full *)
  | Short of int (* a pending group's partial, one value short *)
  | Resend of int (* a partial delivered before: dup, or stale once done *)
  | Unknown of int (* a fan-out id never issued *)
  | Wrong_shard of int (* a pending fan-out, from a shard it did not ask *)

let show_fop = function
  | Request ks -> "Request[" ^ String.concat ";" (List.map string_of_int ks) ^ "]"
  | Deliver i -> Printf.sprintf "Deliver %d" i
  | Short i -> Printf.sprintf "Short %d" i
  | Resend i -> Printf.sprintf "Resend %d" i
  | Unknown i -> Printf.sprintf "Unknown %d" i
  | Wrong_shard i -> Printf.sprintf "Wrong_shard %d" i

let gen_fop =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun ks -> Request ks) (list_size (int_range 1 8) (int_bound 11)));
        (5, map (fun i -> Deliver i) nat);
        (1, map (fun i -> Short i) nat);
        (1, map (fun i -> Resend i) nat);
        (1, map (fun i -> Unknown i) nat);
        (1, map (fun i -> Wrong_shard i) nat);
      ])

(* The reference model of one pending fan-out. *)
type mgroup = { g_keys : string list; mutable g_vals : string list option }

type mfanout = { m_id : int64; m_keys : string list; m_groups : (int * mgroup) list }

type model = {
  pending : (int, mfanout) Hashtbl.t;
  mutable history : (int * int * string list) list; (* first deliveries *)
  mutable started : int;
  mutable completed : int;
  mutable partials : int;
  mutable dups : int;
  mutable orphans : int;
  mutable misaligned : int;
}

let groups_of ring keys =
  List.fold_left
    (fun acc k ->
      let sh = Cluster.Ring.owner ring k in
      if List.mem_assoc sh acc then
        List.map (fun (s, ks) -> if s = sh then (s, ks @ [ k ]) else (s, ks)) acc
      else acc @ [ (sh, [ k ]) ])
    [] keys

let nth_mod l i = List.nth l (i mod List.length l)

let prop_fanout_table =
  QCheck.Test.make ~count:40 ~name:"dispatcher fan-out table matches a model"
    QCheck.(
      make
        ~print:(fun (n, ops) ->
          Printf.sprintf "%d shards: %s" n (String.concat ", " (List.map show_fop ops)))
        Gen.(pair (int_range 1 4) (list_size (int_range 100 400) gen_fop)))
    (fun (shards, ops) ->
      Test_faults.with_san (fun () ->
          let h = make_harness ~shards in
          let m =
            {
              pending = Hashtbl.create 64;
              history = [];
              started = 0;
              completed = 0;
              partials = 0;
              dups = 0;
              orphans = 0;
              misaligned = 0;
            }
          in
          let next_fid = ref 1 in
          let fail fmt = QCheck.Test.fail_reportf fmt in
          let undelivered () =
            Hashtbl.fold
              (fun fid f acc ->
                List.fold_left
                  (fun acc (sh, g) ->
                    if g.g_vals = None then (fid, sh, g.g_keys) :: acc else acc)
                  acc f.m_groups)
              m.pending []
            |> List.sort compare
          in
          let deliver ~fid ~shard vals =
            h_partial h ~fid ~shard vals;
            m.partials <- m.partials + 1;
            match Hashtbl.find_opt m.pending fid with
            | None -> m.orphans <- m.orphans + 1
            | Some f -> (
                match List.assoc_opt shard f.m_groups with
                | None -> m.orphans <- m.orphans + 1
                | Some { g_vals = Some _; _ } -> m.dups <- m.dups + 1
                | Some g ->
                    g.g_vals <- Some vals;
                    m.history <- (fid, shard, vals) :: m.history;
                    if List.length vals <> List.length g.g_keys then
                      m.misaligned <- m.misaligned + 1;
                    if List.for_all (fun (_, g) -> g.g_vals <> None) f.m_groups
                    then begin
                      Hashtbl.remove m.pending fid;
                      m.completed <- m.completed + 1;
                      (* Values are positional: a key is answered with the
                         value at its rank in its group's partial, if the
                         partial carried that many. *)
                      let expect =
                        List.concat
                          (List.mapi
                             (fun j k ->
                               let sh = Cluster.Ring.owner h.ring k in
                               let g = List.assoc sh f.m_groups in
                               let rank =
                                 List.length
                                   (List.filter
                                      (fun k' -> Cluster.Ring.owner h.ring k' = sh)
                                      (List.filteri (fun j' _ -> j' < j) f.m_keys))
                               in
                               match List.nth_opt (Option.get g.g_vals) rank with
                               | Some v -> [ v ]
                               | None -> [])
                             f.m_keys)
                      in
                      match Queue.take_opt h.replies with
                      | Some (id, vals) when id = f.m_id && vals = expect -> ()
                      | Some (id, vals) ->
                          fail "reply %Ld [%s], expected %Ld [%s]" id
                            (String.concat ";" vals) f.m_id
                            (String.concat ";" expect)
                      | None -> fail "fan-out %d completed without a reply" fid
                    end)
          in
          let run = function
            | Request ks ->
                let keys = List.map fk ks in
                let fid = !next_fid in
                incr next_fid;
                let id = Int64.of_int (1000 + fid) in
                h_request h ~id keys;
                m.started <- m.started + 1;
                let groups = groups_of h.ring keys in
                let seen = List.of_seq (Queue.to_seq h.subreqs) in
                Queue.clear h.subreqs;
                let want = List.sort compare (List.map (fun (sh, ks) -> (fid, sh, ks)) groups) in
                if List.sort compare seen <> want then
                  fail "fan-out %d: sub-requests differ from the model" fid;
                Hashtbl.replace m.pending fid
                  {
                    m_id = id;
                    m_keys = keys;
                    m_groups =
                      List.map (fun (sh, ks) -> (sh, { g_keys = ks; g_vals = None })) groups;
                  }
            | Deliver i -> (
                match undelivered () with
                | [] -> ()
                | l ->
                    let fid, shard, keys = nth_mod l i in
                    deliver ~fid ~shard (List.map fv keys))
            | Short i -> (
                match undelivered () with
                | [] -> ()
                | l ->
                    let fid, shard, keys = nth_mod l i in
                    deliver ~fid ~shard
                      (List.filteri (fun j _ -> j > 0) (List.map fv keys)))
            | Resend i -> (
                match m.history with
                | [] -> ()
                | l ->
                    let fid, shard, vals = nth_mod l i in
                    deliver ~fid ~shard vals)
            | Unknown i -> deliver ~fid:(1_000_000 + i) ~shard:1 [ "x" ]
            | Wrong_shard i -> (
                let cands =
                  Hashtbl.fold
                    (fun fid f acc ->
                      List.fold_left
                        (fun acc sh ->
                          if List.mem_assoc sh f.m_groups then acc
                          else (fid, sh) :: acc)
                        acc
                        (List.init shards (fun s -> s + 1)))
                    m.pending []
                  |> List.sort compare
                in
                match cands with
                | [] -> ()
                | l ->
                    let fid, shard = nth_mod l i in
                    deliver ~fid ~shard [ "x" ])
          in
          let check what =
            let a = Cluster.Dispatcher.audit h.disp in
            let want =
              Cluster.Dispatcher.
                {
                  fanouts_started = m.started;
                  fanouts_completed = m.completed;
                  partials = m.partials;
                  dup_partials = m.dups;
                  orphan_partials = m.orphans;
                  misaligned = m.misaligned;
                  in_flight = Hashtbl.length m.pending;
                  max_completions_per_id = (if m.completed > 0 then 1 else 0);
                }
            in
            if a <> want then fail "audit differs from the model after %s" what;
            if not (Queue.is_empty h.replies) then fail "unexpected reply after %s" what
          in
          List.iter
            (fun op ->
              run op;
              check (show_fop op))
            ops;
          List.iter
            (fun (fid, shard, keys) -> deliver ~fid ~shard (List.map fv keys))
            (undelivered ());
          check "draining";
          Sim.Engine.quiesce h.engine;
          let leaks = List.length (Sanitizer.Refsan.leaks ()) in
          let hazards = Sanitizer.Refsan.hazard_count () in
          if leaks <> 0 || hazards <> 0 then
            fail "refsan: %d leaks, %d hazards" leaks hazards;
          true))

(* Steady-state allocation of a 4-key multi-get in the dispatcher alone
   (its handler, counted around each call). Every forwarded key and every
   retained value is one 4-word buffer handle in a 2-word [Zero_copy]
   box: 8 x 6 = 48 words is the per-reference floor. Beyond it are each
   send's 4-word staging handle (one per sub-request and one for the
   response; the writer is retargeted at its window, no view) and the
   arena copies of values the adaptive threshold demotes (a 5-word view in
   a 2-word [Copied] box each): 8 to 48 words at 1 to 4 owning shards. *)
let test_fanout_allocation_budget () =
  let topo, backend = make_topo ~shards:4 () in
  let d = Cluster.Topology.dispatcher topo in
  let words = ref 0.0 in
  Loadgen.Server.set_handler (Cluster.Dispatcher.server d) (fun ~src buf ->
      let w0 = Gc.minor_words () in
      Cluster.Dispatcher.handler d ~src buf;
      words := !words +. (Gc.minor_words () -. w0));
  let keys = List.init 4 (fun i -> Cluster.Plan.key_of (1 + (7 * i))) in
  let client_space = Mem.Addr_space.create () in
  let mget id =
    match
      roundtrip ~space:client_space topo backend ~op:Apps.Proto.op_get ~keys ~id ()
    with
    | Some (rid, vals) when rid = id && List.length vals = 4 -> ()
    | _ -> Alcotest.failf "bad response to multi-get %d" id
  in
  for id = 1 to 200 do
    mget id
  done;
  words := 0.0;
  let n = 1_000 in
  for id = 201 to 200 + n do
    mget id
  done;
  let per = !words /. float_of_int n in
  let floor = 48.0 and budget = 48.0 in
  if per > floor +. budget then
    Alcotest.failf "%.1f words per 4-key multi-get: %.1f beyond the %.0f-word \
                    floor, budget %.0f"
      per (per -. floor) floor budget

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
    Alcotest.test_case "dispatcher drops an invalid frame" `Quick
      test_dispatcher_drops_invalid_frame;
    Alcotest.test_case "misses are empty and reserve nothing" `Quick
      test_misses_are_empty_and_reserve_nothing;
    Alcotest.test_case "parse_id rejects garbled replies" `Quick
      test_parse_id_rejects_garbled_replies;
    Alcotest.test_case "completion audit echoes any 64-bit id" `Quick
      test_completion_audit_ids;
    Alcotest.test_case "stale partial on a reused slot" `Quick
      test_stale_partial_on_reused_slot;
    QCheck_alcotest.to_alcotest prop_fanout_table;
    Alcotest.test_case "fan-out allocation budget" `Quick
      test_fanout_allocation_budget;
  ]

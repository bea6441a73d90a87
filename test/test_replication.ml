(* Tests for the replicated key-value store (nested-object application,
   paper §4). *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

let small_workload () = Workload.Ycsb.make ~n_keys:128 ~entries:1 ~entry_size:600 ()

let make ?(backups = 2) () =
  let rig = Apps.Rig.create ~n_clients:2 () in
  let cluster = Replication.Replicated_kv.create rig ~backups ~workload:(small_workload ()) in
  (rig, cluster)

let run_op rig cluster ?(id = 1) op =
  let client = List.hd rig.Apps.Rig.clients in
  let got = ref None in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      got := Some (Replication.Replicated_kv.parse_id cluster buf);
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  Replication.Replicated_kv.send_op cluster op client ~dst:Apps.Rig.server_id ~id;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  !got

let value_string store key =
  match Kvstore.Store.get store ~key with
  | Some v ->
      String.concat ""
        (List.map
           (fun b -> Mem.View.to_string (Mem.Pinned.Buf.view b))
           (Kvstore.Store.buffers v))
  | None -> "<missing>"

let test_put_replicates_to_all_backups () =
  let rig, cluster = make () in
  let key = "replicated-key" in
  (match run_op rig cluster ~id:7 (Workload.Spec.Put { key; sizes = [ 900 ] }) with
  | Some 7 -> ()
  | other -> Alcotest.failf "bad ack id %s" (match other with Some i -> string_of_int i | None -> "none"));
  Alcotest.(check int) "committed" 1 (Replication.Replicated_kv.committed cluster);
  let expect =
    value_string (Replication.Replicated_kv.primary_store cluster) key
  in
  Alcotest.(check int) "value size" 900 (String.length expect);
  List.iteri
    (fun i store ->
      Alcotest.(check string)
        (Printf.sprintf "backup %d converged" i)
        expect (value_string store key))
    (Replication.Replicated_kv.backup_stores cluster)

let test_ack_only_after_all_backups () =
  let rig, cluster = make ~backups:3 () in
  let client = List.hd rig.Apps.Rig.clients in
  let acked = ref false in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      acked := true;
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  Replication.Replicated_kv.send_op cluster
    (Workload.Spec.Put { key = "k"; sizes = [ 100 ] })
    client ~dst:Apps.Rig.server_id ~id:1;
  (* Before the engine runs, nothing can have been acknowledged. *)
  Alcotest.(check bool) "not acked yet" false !acked;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Alcotest.(check bool) "acked after replication" true !acked;
  Alcotest.(check int) "committed once" 1
    (Replication.Replicated_kv.committed cluster)

let test_get_after_put_sees_new_value () =
  let rig, cluster = make () in
  let key = Printf.sprintf "user%026d" 1 in
  ignore (run_op rig cluster ~id:1 (Workload.Spec.Put { key; sizes = [ 800 ] }));
  let client = List.hd rig.Apps.Rig.clients in
  let got_len = ref (-1) in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      (match
         Cornflakes.Format_.deserialize ~cpu:none
           Replication.Replicated_kv.schema
           (Schema.Desc.message Replication.Replicated_kv.schema "RepMsg")
           buf
       with
      | msg ->
          got_len :=
            List.fold_left
              (fun acc v ->
                match v with
                | Wire.Dyn.Payload p -> acc + Wire.Payload.len p
                | _ -> acc)
              0 (Wire.Dyn.get_list msg "vals");
          Wire.Dyn.release ~cpu:none msg
      | exception Cornflakes.Format_.Malformed _ -> ());
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  Replication.Replicated_kv.send_op cluster
    (Workload.Spec.Get { keys = [ key ] })
    client ~dst:Apps.Rig.server_id ~id:2;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Alcotest.(check int) "read back updated size" 800 !got_len

let test_many_random_puts_converge () =
  let rig, cluster = make ~backups:2 () in
  let client = List.hd rig.Apps.Rig.clients in
  Net.Transport.set_rx client (fun ~src:_ buf -> Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  let rng = Sim.Rng.create ~seed:5 in
  let n = 60 in
  for id = 1 to n do
    let key = Printf.sprintf "user%026d" (1 + Sim.Rng.int rng 32) in
    let size = 50 + Sim.Rng.int rng 1500 in
    Sim.Engine.schedule rig.Apps.Rig.engine ~after:(id * 2_000) (fun () ->
        Replication.Replicated_kv.send_op cluster
          (Workload.Spec.Put { key; sizes = [ size ] })
          client ~dst:Apps.Rig.server_id ~id)
  done;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Alcotest.(check int) "all committed" n
    (Replication.Replicated_kv.committed cluster);
  (* Every touched key agrees across the primary and all backups. *)
  for k = 1 to 32 do
    let key = Printf.sprintf "user%026d" k in
    let expect =
      value_string (Replication.Replicated_kv.primary_store cluster) key
    in
    List.iter
      (fun store ->
        Alcotest.(check string) (Printf.sprintf "key %d" k) expect
          (value_string store key))
      (Replication.Replicated_kv.backup_stores cluster)
  done

let test_zero_backups_degenerates_to_plain_kv () =
  let rig, cluster = make ~backups:0 () in
  match run_op rig cluster ~id:9 (Workload.Spec.Put { key = "solo"; sizes = [ 64 ] }) with
  | Some 9 ->
      Alcotest.(check int) "committed" 1
        (Replication.Replicated_kv.committed cluster)
  | _ -> Alcotest.fail "no ack"

let test_sustained_replicated_load () =
  let rig, cluster = make ~backups:2 () in
  let send ep ~dst ~id = Replication.Replicated_kv.send_next cluster ep ~dst ~id in
  let parse_id = Some (fun buf -> Replication.Replicated_kv.parse_id cluster buf) in
  let r =
    Loadgen.Driver.closed_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
      ~server:Apps.Rig.server_id ~outstanding:2 ~duration_ns:2_000_000
      ~warmup_ns:0 ~rng:rig.Apps.Rig.rng ~send ~parse_id
  in
  Alcotest.(check bool) "sustains load" true (r.Loadgen.Driver.completed > 200)

module Plan = Faults.Plan
module Refsan = Sanitizer.Refsan

let with_san f =
  let was = Refsan.is_enabled () in
  Refsan.reset ();
  Refsan.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Refsan.set_enabled was;
      Refsan.reset ())
    f

let inject rig rules =
  Apps.Rig.inject_faults rig (Faults.Injector.create (Plan.make ~seed:1 rules))

(* Backup [i] is endpoint [11 + i]. *)
let backup_ep i = 11 + i

(* A duplicated ack must not commit a put early. Every replicate toward
   backup 0 arrives twice, so backup 0 acks the put twice; backup 1's copy
   is delayed. The client's reply may only arrive once backup 1 holds the
   value. *)
let test_duplicate_ack_does_not_commit_early () =
  let rig, cluster = make () in
  inject rig
    [
      { Plan.fault = Duplicate; schedule = Every_nth 1; scope = Endpoint (backup_ep 0) };
      {
        Plan.fault = Delay { extra_ns = 50_000 };
        schedule = Every_nth 1;
        scope = Endpoint (backup_ep 1);
      };
    ];
  let key = "dup-ack-key" in
  let backup1 = List.nth (Replication.Replicated_kv.backup_stores cluster) 1 in
  let at_reply = ref None in
  let client = List.hd rig.Apps.Rig.clients in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      at_reply := Some (value_string backup1 key);
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  Replication.Replicated_kv.send_op cluster
    (Workload.Spec.Put { key; sizes = [ 700 ] })
    client ~dst:Apps.Rig.server_id ~id:1;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Alcotest.(check bool) "backup 0 saw duplicates" true
    (Net.Fabric.duplicated rig.Apps.Rig.fabric > 0);
  match !at_reply with
  | None -> Alcotest.fail "no reply"
  | Some v ->
      Alcotest.(check int) "backup 1 holds the value when the client hears"
        700 (String.length v);
      Alcotest.(check int) "committed once" 1
        (Replication.Replicated_kv.committed cluster)

(* The backup's out-of-order path: the replicate stream toward backup 0 is
   reordered and duplicated while puts to a handful of keys are in flight
   back to back. Parked ops must apply in sequence order (the last write to
   each key wins on every replica), every put commits exactly once, and the
   parked receive-buffer views are all released. *)
let test_reordered_replication_converges () =
  with_san (fun () ->
      let rig, cluster = make () in
      inject rig
        [
          { Plan.fault = Reorder; schedule = Every_nth 2; scope = Endpoint (backup_ep 0) };
          { Plan.fault = Duplicate; schedule = Every_nth 3; scope = Endpoint (backup_ep 0) };
        ];
      let client = List.hd rig.Apps.Rig.clients in
      let replies = ref 0 in
      Net.Transport.set_rx client (fun ~src:_ buf ->
          incr replies;
          Mem.Pinned.Buf.decr_ref ~cpu:none buf);
      let n = 40 and keys = 4 in
      for id = 1 to n do
        let key = Printf.sprintf "user%026d" (1 + (id mod keys)) in
        (* Distinct sizes, small and zero-copy: a misordered apply leaves
           a backup holding a different value than the primary. *)
        let size = 100 + (37 * id) in
        Sim.Engine.schedule rig.Apps.Rig.engine ~after:(id * 300) (fun () ->
            Replication.Replicated_kv.send_op cluster
              (Workload.Spec.Put { key; sizes = [ size ] })
              client ~dst:Apps.Rig.server_id ~id)
      done;
      Sim.Engine.run_all rig.Apps.Rig.engine;
      Alcotest.(check bool) "replicates were reordered" true
        (Net.Fabric.reordered rig.Apps.Rig.fabric > 0);
      Alcotest.(check int) "every put committed" n
        (Replication.Replicated_kv.committed cluster);
      Alcotest.(check int) "every put answered" n !replies;
      for k = 1 to keys do
        let key = Printf.sprintf "user%026d" k in
        let expect =
          value_string (Replication.Replicated_kv.primary_store cluster) key
        in
        List.iteri
          (fun i store ->
            Alcotest.(check string)
              (Printf.sprintf "key %d on backup %d" k i)
              expect (value_string store key))
          (Replication.Replicated_kv.backup_stores cluster)
      done;
      Sim.Engine.quiesce rig.Apps.Rig.engine;
      Alcotest.(check int) "refsan leaks" 0 (List.length (Refsan.leaks ()));
      Alcotest.(check int) "refsan hazards" 0 (Refsan.hazard_count ()))

(* --- frames built in the test -------------------------------------------- *)

module Rep = Replication.Replication_rpc

let rep_msg = Rep.Repmsg.desc

let rep_op = Rep.Repop.desc

let lit s =
  Wire.Payload.Literal
    (Mem.View.make ~addr:0 ~data:(Bytes.of_string s) ~off:0
       ~len:(String.length s))

(* A message serialized in memory: literal payloads only, so the whole
   object is header plus copied region. *)
let encode msg =
  let plan = Cornflakes.Format_.measure msg in
  let len = plan.Cornflakes.Format_.header_len + plan.Cornflakes.Format_.stream_len in
  let data = Bytes.make len '\000' in
  let w =
    Wire.Cursor.Writer.create ~cpu:none (Mem.View.make ~addr:0 ~data ~off:0 ~len)
  in
  Cornflakes.Format_.write plan w msg;
  Bytes.to_string data

let rep_frame ~id ~op ?body () =
  let m = Wire.Dyn.create rep_msg in
  Wire.Dyn.set_int m "id" id;
  Wire.Dyn.set_int m "op" op;
  (match body with
  | Some (seq, kind, key, vals) ->
      let o = Wire.Dyn.create rep_op in
      (match seq with Some s -> Wire.Dyn.set_int o "seq" s | None -> ());
      Wire.Dyn.set_int o "kind" kind;
      (match key with
      | Some k -> Wire.Dyn.set_payload o "key" (lit k)
      | None -> ());
      List.iter (fun v -> Wire.Dyn.append o "vals" (Wire.Dyn.Payload (lit v))) vals;
      Wire.Dyn.set m "body" (Wire.Dyn.Nested o)
  | None -> ());
  encode m

let op_request = Rep.Replica_service.id_request

let op_replicate = Rep.Replica_service.id_replicate

(* The backups' ack word, after the two method ids. *)
let op_ack = 2L

let kind_get = Apps.Kv_rpc.Kv_service.id_get

let kind_put = Apps.Kv_rpc.Kv_service.id_put

let replicate_frame ~seq ~key vals =
  let s = Int64.of_int seq in
  rep_frame ~id:s ~op:op_replicate ~body:(Some s, kind_put, Some key, vals) ()

let ack_frame ~seq = rep_frame ~id:(Int64.of_int seq) ~op:op_ack ()

let request_frame ~id ~kind ~key vals =
  rep_frame ~id ~op:op_request ~body:(None, kind, Some key, vals) ()

let primary_tr rig = Net.Endpoint.transport rig.Apps.Rig.server_ep

let backup_server cluster i =
  List.nth (Replication.Replicated_kv.backup_servers cluster) i

let rejected_total rig cluster =
  Loadgen.Server.rejected rig.Apps.Rig.server
  + List.fold_left
      (fun acc s -> acc + Loadgen.Server.rejected s)
      0
      (Replication.Replicated_kv.backup_servers cluster)

(* A frame's reading as the test's own reader sees it: a replicate a
   backup would serve (valid envelope, op replicate, valid body with a seq
   in [0, max_int]). *)
let is_valid_replicate s =
  let buf = Test_fuzz.make_buf s in
  let r = Wire.Reader.create rep_msg and o = Wire.Reader.create rep_op in
  let valid =
    match Wire.Reader.validate r buf with
    | exception Wire.Reader.Invalid _ -> false
    | () -> (
        Wire.Reader.get_u64_or r Rep.Repmsg.idx_op ~default:(-1L) = op_replicate
        && Wire.Reader.present r Rep.Repmsg.idx_body
        &&
        match Wire.Reader.nested r Rep.Repmsg.idx_body ~into:o with
        | () ->
            Wire.Reader.present o Rep.Repop.idx_seq
            && Int64.compare (Wire.Reader.get_u64 o Rep.Repop.idx_seq) 0L >= 0
        | exception Wire.Reader.Invalid _ -> false)
  in
  Mem.Pinned.Buf.decr_ref ~cpu:none buf;
  valid

(* --- ingress: hostile frames are served or counted ----------------------- *)

type target = To_primary | To_backup_from_client | To_backup_from_primary

let valid_corpus =
  [|
    request_frame ~id:77L ~kind:kind_put ~key:"fz-1" [ String.make 40 'a' ];
    request_frame ~id:78L ~kind:kind_put ~key:"fz-2"
      [ String.make 300 'b'; String.make 5 'c' ];
    request_frame ~id:79L ~kind:kind_get ~key:"fz-1" [];
    replicate_frame ~seq:1 ~key:"fz-3" [ String.make 20 'd' ];
    replicate_frame ~seq:2 ~key:"fz-4" [ String.make 700 'e' ];
    ack_frame ~seq:1;
    rep_frame ~id:5L ~op:op_request ();
  |]

let gen_fuzz =
  QCheck.Gen.(
    list_size (int_range 10 60)
      (triple
         (oneofl [ To_primary; To_backup_from_client; To_backup_from_primary ])
         (int_bound (Array.length valid_corpus - 1))
         Test_fuzz.gen_mutation))

let show_fuzz (target, i, m) =
  Printf.sprintf "%s frame %d %s"
    (match target with
    | To_primary -> "primary"
    | To_backup_from_client -> "backup<-client"
    | To_backup_from_primary -> "backup<-primary")
    i (Test_fuzz.show_mutation m)

(* Random bytes, truncations and bit flips of valid [RepMsg] frames, sent
   to the primary from a client and to a backup from a client and from
   the primary. Every frame the primary gets is answered or counted; a
   backup counts every frame from a client, and every frame from the
   primary that is not a valid replicate (valid ones would be applied, so
   they are not sent). Later valid puts still commit, the backups
   converge, and RefSan is clean. *)
let prop_ingress =
  QCheck.Test.make ~count:60 ~name:"replication ingress: served or counted"
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map show_fuzz l))
       gen_fuzz)
    (fun frames ->
      with_san (fun () ->
          let rig, cluster = make () in
          let engine = rig.Apps.Rig.engine in
          let client = List.hd rig.Apps.Rig.clients in
          let replies = ref 0 in
          Net.Transport.set_rx client (fun ~src:_ buf ->
              incr replies;
              Mem.Pinned.Buf.decr_ref ~cpu:none buf);
          let fail fmt = QCheck.Test.fail_reportf fmt in
          List.iter
            (fun ((target, i, m) as f) ->
              let s = Test_fuzz.mutate valid_corpus.(i) m in
              let replies0 = !replies and rejected0 = rejected_total rig cluster in
              let sent =
                match target with
                | To_primary ->
                    Net.Transport.send_string client ~dst:Apps.Rig.server_id s;
                    true
                | To_backup_from_client ->
                    Net.Transport.send_string client ~dst:(backup_ep 0) s;
                    true
                | To_backup_from_primary ->
                    (not (is_valid_replicate s))
                    && begin
                         Net.Transport.send_string (primary_tr rig)
                           ~dst:(backup_ep 1) s;
                         true
                       end
              in
              Sim.Engine.run_all engine;
              let answered = !replies - replies0
              and counted = rejected_total rig cluster - rejected0 in
              if sent && answered + counted <> 1 then
                fail "%s: %d replies, %d rejects" (show_fuzz f) answered counted;
              if target <> To_primary && answered <> 0 then
                fail "%s: a backup frame drew a client reply" (show_fuzz f))
            frames;
          let committed0 = Replication.Replicated_kv.committed cluster in
          for id = 1 to 8 do
            ignore
              (run_op rig cluster ~id
                 (Workload.Spec.Put
                    { key = Printf.sprintf "later-%d" (id mod 3); sizes = [ 100 * id ] }))
          done;
          if Replication.Replicated_kv.committed cluster - committed0 <> 8 then
            fail "later puts did not all commit";
          for k = 0 to 2 do
            let key = Printf.sprintf "later-%d" k in
            let expect =
              value_string (Replication.Replicated_kv.primary_store cluster) key
            in
            List.iter
              (fun store ->
                if value_string store key <> expect then
                  fail "backup diverged on %s" key)
              (Replication.Replicated_kv.backup_stores cluster)
          done;
          Sim.Engine.quiesce engine;
          let leaks = List.length (Refsan.leaks ())
          and hazards = Refsan.hazard_count () in
          if leaks <> 0 || hazards <> 0 then
            fail "refsan: %d leaks, %d hazards" leaks hazards;
          true))

(* A valid replicate from any endpoint but the primary, and an ack from
   any endpoint but a backup, are dropped and counted; the backup's state
   does not move. *)
let test_wrong_peer_rejected () =
  let rig, cluster = make () in
  let client = List.hd rig.Apps.Rig.clients in
  Net.Transport.send_string client ~dst:(backup_ep 0)
    (replicate_frame ~seq:1 ~key:"intruder" [ "x" ]);
  Net.Transport.send_string client ~dst:Apps.Rig.server_id (ack_frame ~seq:1);
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Alcotest.(check int) "backup counted the replicate" 1
    (Loadgen.Server.rejected (backup_server cluster 0));
  Alcotest.(check int) "primary counted the ack" 1
    (Loadgen.Server.rejected rig.Apps.Rig.server);
  Alcotest.(check string) "nothing applied" "<missing>"
    (value_string (List.hd (Replication.Replicated_kv.backup_stores cluster))
       "intruder");
  (* The backup still applies the primary's seq 1. *)
  ignore (run_op rig cluster ~id:3 (Workload.Spec.Put { key = "k"; sizes = [ 10 ] }));
  Alcotest.(check int) "the next put commits" 1
    (Replication.Replicated_kv.committed cluster)

(* A replicate from the primary whose seq has bit 63 set is no op any
   primary numbers: the backup counts it and applies nothing, not even as
   the seq its low 63 bits name (1, the backup's next turn). *)
let test_top_bit_seq_rejected () =
  let rig, cluster = make () in
  let seq = Int64.add Int64.min_int 1L in
  Net.Transport.send_string (primary_tr rig) ~dst:(backup_ep 0)
    (rep_frame ~id:seq ~op:op_replicate
       ~body:(Some seq, kind_put, Some "aliased", [ "x" ])
       ());
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Alcotest.(check int) "backup counted it" 1
    (Loadgen.Server.rejected (backup_server cluster 0));
  Alcotest.(check string) "nothing applied" "<missing>"
    (value_string (List.hd (Replication.Replicated_kv.backup_stores cluster))
       "aliased");
  ignore (run_op rig cluster ~id:3 (Workload.Spec.Put { key = "k"; sizes = [ 10 ] }));
  Alcotest.(check int) "the next put commits" 1
    (Replication.Replicated_kv.committed cluster)

(* --- model-based: the primary's pending table and a backup's parked ops -- *)

type mop =
  | Put of int * int (* key index, value size *)
  | Get of int
  | Ack of int * int (* backup, pick among seqs issued so far *)
  | Stale_ack of int * int (* backup, distance past the last seq issued *)
  | Foreign_ack of int
  | Deliver of int (* backup harness: seq = expected + d *)
  | Deliver_far of int (* seq past the parked ring's initial width *)
  | Redeliver of int (* a seq delivered before *)

let show_mop = function
  | Put (k, n) -> Printf.sprintf "Put(%d,%d)" k n
  | Get k -> Printf.sprintf "Get %d" k
  | Ack (b, i) -> Printf.sprintf "Ack(%d,%d)" b i
  | Stale_ack (b, d) -> Printf.sprintf "Stale_ack(%d,%d)" b d
  | Foreign_ack i -> Printf.sprintf "Foreign_ack %d" i
  | Deliver d -> Printf.sprintf "Deliver %d" d
  | Deliver_far d -> Printf.sprintf "Deliver_far %d" d
  | Redeliver i -> Printf.sprintf "Redeliver %d" i

let gen_mop =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k n -> Put (k, n)) (int_bound 4) (int_bound 1000));
        (1, map (fun k -> Get k) (int_bound 4));
        (5, map2 (fun b i -> Ack (b, i)) (int_bound 1) nat);
        (1, map2 (fun b d -> Stale_ack (b, d)) (int_bound 1) (int_bound 100));
        (1, map (fun i -> Foreign_ack i) nat);
        (5, map (fun d -> Deliver d) (int_bound 4));
        (1, map (fun d -> Deliver_far d) (int_range 64 160));
        (2, map (fun i -> Redeliver i) nat);
      ])

let mkey k = Printf.sprintf "mk-%d" k

(* The backup harness's op for [seq]: a put of one to three values to one
   of four keys, every byte naming the seq. *)
let op_of_seq seq =
  let key = mkey (seq mod 4) in
  let c = Char.chr (65 + (seq mod 58)) in
  (key, List.init (1 + (seq mod 3)) (fun j -> String.make (1 + ((seq * 37 + j * 101) mod 300)) c))

let filler n = Workload.Spec.filler (max 1 n)

let nth_mod l i = List.nth l (i mod List.length l)

let prop_slot_tables =
  QCheck.Test.make ~count:40 ~name:"replication slot tables match a model"
    (QCheck.make
       ~print:(fun l -> String.concat ", " (List.map show_mop l))
       QCheck.Gen.(list_size (int_range 100 400) gen_mop))
    (fun ops ->
      with_san (fun () ->
          let fail fmt = QCheck.Test.fail_reportf fmt in
          (* Primary harness: both backups are the test's, which acks. *)
          let rig, cluster = make () in
          let engine = rig.Apps.Rig.engine in
          let client = List.hd rig.Apps.Rig.clients in
          let replicated = Array.make 2 [] in
          List.iteri
            (fun b srv ->
              Loadgen.Server.set_handler srv (fun ~src:_ buf ->
                  let r = Wire.Reader.create rep_msg in
                  Wire.Reader.validate r buf;
                  replicated.(b) <-
                    Int64.to_int (Wire.Reader.get_u64 r Rep.Repmsg.idx_id) :: replicated.(b);
                  Mem.Pinned.Buf.decr_ref ~cpu:none buf))
            (Replication.Replicated_kv.backup_servers cluster);
          let replies = Queue.create () in
          let reader = Wire.Reader.create rep_msg in
          Net.Transport.set_rx client (fun ~src:_ buf ->
              Wire.Reader.validate reader buf;
              let vals =
                List.init (Wire.Reader.count_or_zero reader Rep.Repmsg.idx_vals) (fun j ->
                    Wire.Reader.elem_string reader Rep.Repmsg.idx_vals ~j)
              in
              Queue.push
                (Wire.Reader.get_u64 reader Rep.Repmsg.idx_id, String.concat "" vals)
                replies;
              Mem.Pinned.Buf.decr_ref ~cpu:none buf);
          let m_pending = Hashtbl.create 64 (* seq -> (client id, unacked) *)
          and m_primary = Hashtbl.create 8
          and m_replies = Queue.create () in
          let next_seq = ref 1 and next_id = ref 1 and committed = ref 0 in
          let foreign = ref 0 in
          (* Backup harness: one real backup; the primary's handler is the
             test's, recording acks. *)
          let rig_b, cluster_b = make ~backups:1 () in
          let engine_b = rig_b.Apps.Rig.engine in
          let acks = Queue.create () in
          Loadgen.Server.set_handler rig_b.Apps.Rig.server (fun ~src:_ buf ->
              let r = Wire.Reader.create rep_msg in
              Wire.Reader.validate r buf;
              Queue.push (Int64.to_int (Wire.Reader.get_u64 r Rep.Repmsg.idx_id)) acks;
              Mem.Pinned.Buf.decr_ref ~cpu:none buf);
          let backup_store = List.hd (Replication.Replicated_kv.backup_stores cluster_b) in
          let expected = ref 1 and parked = Hashtbl.create 16 in
          let delivered = ref [] and m_acks = Queue.create () in
          let m_backup = Hashtbl.create 8 in
          let apply seq =
            let key, vals = op_of_seq seq in
            Hashtbl.replace m_backup key (String.concat "" vals);
            Queue.push seq m_acks;
            incr expected
          in
          let deliver seq =
            let key, vals = op_of_seq seq in
            Net.Transport.send_string (primary_tr rig_b) ~dst:(backup_ep 0)
              (replicate_frame ~seq ~key vals);
            Sim.Engine.run_all engine_b;
            if not (List.mem seq !delivered) then delivered := seq :: !delivered;
            if seq < !expected then Queue.push seq m_acks
            else if Hashtbl.mem parked seq then ()
            else if seq = !expected then begin
              apply seq;
              while Hashtbl.mem parked !expected do
                Hashtbl.remove parked !expected;
                apply !expected
              done
            end
            else Hashtbl.replace parked seq ()
          in
          let ack ~b ~seq =
            Net.Transport.send_string
              (Loadgen.Server.transport (backup_server cluster b))
              ~dst:Apps.Rig.server_id (ack_frame ~seq);
            Sim.Engine.run_all engine;
            match Hashtbl.find_opt m_pending seq with
            | Some (id, unacked) when List.mem b unacked ->
                let rest = List.filter (( <> ) b) unacked in
                if rest = [] then begin
                  Hashtbl.remove m_pending seq;
                  incr committed;
                  Queue.push (id, "") m_replies
                end
                else Hashtbl.replace m_pending seq (id, rest)
            | Some _ | None -> ()
          in
          let run = function
            | Put (k, n) ->
                let id = !next_id in
                incr next_id;
                Replication.Replicated_kv.send_op cluster
                  (Workload.Spec.Put { key = mkey k; sizes = [ n ] })
                  client ~dst:Apps.Rig.server_id ~id;
                Sim.Engine.run_all engine;
                let seq = !next_seq in
                incr next_seq;
                Hashtbl.replace m_primary (mkey k) (filler n);
                Hashtbl.replace m_pending seq (Int64.of_int id, [ 0; 1 ]);
                Array.iteri
                  (fun b l ->
                    match l with
                    | s :: _ when s = seq -> ()
                    | _ -> fail "backup %d was not sent seq %d" b seq)
                  replicated
            | Get k ->
                let id = !next_id in
                incr next_id;
                Replication.Replicated_kv.send_op cluster
                  (Workload.Spec.Get { keys = [ mkey k ] })
                  client ~dst:Apps.Rig.server_id ~id;
                Sim.Engine.run_all engine;
                Queue.push
                  ( Int64.of_int id,
                    Option.value ~default:"" (Hashtbl.find_opt m_primary (mkey k)) )
                  m_replies
            | Ack (b, i) ->
                if !next_seq > 1 then ack ~b ~seq:(1 + (i mod (!next_seq - 1)))
            | Stale_ack (b, d) -> ack ~b ~seq:(!next_seq + d)
            | Foreign_ack i ->
                Net.Transport.send_string client ~dst:Apps.Rig.server_id
                  (ack_frame ~seq:(1 + (i mod max 1 (!next_seq - 1))));
                Sim.Engine.run_all engine;
                incr foreign
            | Deliver d -> deliver (!expected + d)
            | Deliver_far d -> deliver (!expected + d)
            | Redeliver i -> (
                match !delivered with [] -> () | l -> deliver (nth_mod l i))
          in
          let check what =
            let got = List.of_seq (Queue.to_seq replies)
            and want = List.of_seq (Queue.to_seq m_replies) in
            if got <> want then fail "replies differ from the model after %s" what;
            if Replication.Replicated_kv.committed cluster <> !committed then
              fail "committed %d, model %d after %s"
                (Replication.Replicated_kv.committed cluster) !committed what;
            if Loadgen.Server.rejected rig.Apps.Rig.server <> !foreign then
              fail "primary rejects differ after %s" what;
            if List.of_seq (Queue.to_seq acks) <> List.of_seq (Queue.to_seq m_acks)
            then fail "backup acks differ from the model after %s" what;
            for k = 0 to 3 do
              let want =
                match Hashtbl.find_opt m_backup (mkey k) with
                | Some v -> v
                | None -> "<missing>"
              in
              if value_string backup_store (mkey k) <> want then
                fail "backup holds a different %s after %s" (mkey k) what
            done
          in
          List.iter
            (fun op ->
              run op;
              check (show_mop op))
            ops;
          (* Drain: ack every pending put from both backups, fill every gap
             below the highest parked op. *)
          List.iter
            (fun seq ->
              ack ~b:0 ~seq;
              ack ~b:1 ~seq)
            (List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) m_pending []));
          let top = Hashtbl.fold (fun s () acc -> max s acc) parked 0 in
          while !expected <= top do
            deliver !expected
          done;
          check "draining";
          if Hashtbl.length m_pending <> 0 then fail "puts still pending";
          Sim.Engine.quiesce engine;
          Sim.Engine.quiesce engine_b;
          let leaks = List.length (Refsan.leaks ())
          and hazards = Refsan.hazard_count () in
          if leaks <> 0 || hazards <> 0 then
            fail "refsan: %d leaks, %d hazards" leaks hazards;
          true))

(* --- allocation budget --------------------------------------------------- *)

(* Steady-state minor words of one put in the replication handlers: the
   primary's request handler and its two ack handlers, and each backup's
   replicate handler, counted around each of those five calls with the
   engine drained. The floor is what the three stores must keep: each
   installs a 4-word buffer handle in a 2-word [Single] (18 words). The
   budget beyond it is what the handlers hand to the send path and to the
   store: each of the five sends' 4-word staging handle (20; the writer is
   retargeted at its window, no view), per replicate the key's view and its
   arena copy (12) and the stored value's 2-word [Zero_copy] box (the held
   buffer is referenced, no view or fresh handle), the 3-word list cell
   each install builds its value from (9), and the five counter readings
   (2 each). *)
let test_put_allocation_budget () =
  let rig, cluster = make ~backups:2 () in
  let client = List.hd rig.Apps.Rig.clients in
  Net.Transport.set_rx client (fun ~src:_ buf -> Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  let words = ref 0.0 in
  List.iter
    (fun srv ->
      let h = Loadgen.Server.handler srv in
      Loadgen.Server.set_handler srv (fun ~src buf ->
          let w0 = Gc.minor_words () in
          h ~src buf;
          words := !words +. (Gc.minor_words () -. w0)))
    (rig.Apps.Rig.server :: Replication.Replicated_kv.backup_servers cluster);
  let put id =
    Replication.Replicated_kv.send_op cluster
      (Workload.Spec.Put { key = Printf.sprintf "user%026d" (1 + (id mod 8)); sizes = [ 600 ] })
      client ~dst:Apps.Rig.server_id ~id;
    Sim.Engine.run_all rig.Apps.Rig.engine
  in
  for id = 1 to 200 do
    put id
  done;
  words := 0.0;
  let n = 1_000 in
  for id = 201 to 200 + n do
    put id
  done;
  Alcotest.(check int) "all committed" (200 + n)
    (Replication.Replicated_kv.committed cluster);
  let per = !words /. float_of_int n in
  let floor = 18.0
  and budget = (5.0 *. 4.0) +. (2.0 *. (12.0 +. 2.0)) +. 9.0 +. 10.0 in
  if per > floor +. budget then
    Alcotest.failf "%.1f words per replicated put: %.1f beyond the %.0f-word \
                    floor, budget %.0f"
      per (per -. floor) floor budget

let suite =
  [
    Alcotest.test_case "put replicates to backups" `Quick
      test_put_replicates_to_all_backups;
    Alcotest.test_case "ack only after all backups" `Quick
      test_ack_only_after_all_backups;
    Alcotest.test_case "get after put" `Quick test_get_after_put_sees_new_value;
    Alcotest.test_case "random puts converge" `Quick test_many_random_puts_converge;
    Alcotest.test_case "zero backups" `Quick test_zero_backups_degenerates_to_plain_kv;
    Alcotest.test_case "duplicate ack does not commit early" `Quick
      test_duplicate_ack_does_not_commit_early;
    Alcotest.test_case "reordered replication converges" `Quick
      test_reordered_replication_converges;
    Alcotest.test_case "sustained replicated load" `Slow
      test_sustained_replicated_load;
    Alcotest.test_case "wrong peer rejected" `Quick test_wrong_peer_rejected;
    Alcotest.test_case "top-bit seq rejected" `Quick test_top_bit_seq_rejected;
    QCheck_alcotest.to_alcotest prop_ingress;
    QCheck_alcotest.to_alcotest prop_slot_tables;
    Alcotest.test_case "put allocation budget" `Quick test_put_allocation_budget;
  ]

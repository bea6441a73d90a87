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
         Cornflakes.Send.deserialize ~cpu:none Replication.Replicated_kv.schema
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
  ]

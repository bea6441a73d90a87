(* Faultline tests: plan DSL parsing/validation, fabric fault accounting,
   injector determinism, the retry/dedup resilience layers, NIC completion
   loss + TX-ring reaping (and its RefSan stuck-hold diagnostic), arena
   soft-capacity exhaustion, zero-copy demotion under ring pressure, and
   the end-to-end exactly-once property under seeded fault plans. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

module Plan = Faults.Plan
module Injector = Faults.Injector
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

(* --- Plan DSL ----------------------------------------------------------- *)

let test_plan_round_trip () =
  List.iter
    (fun name ->
      match Plan.builtin name with
      | None -> Alcotest.fail ("missing builtin " ^ name)
      | Some p ->
          let p' = Plan.parse (Plan.to_string p) in
          Alcotest.(check bool) ("round-trip " ^ name) true (p = p'))
    Plan.builtin_names

let test_plan_validation () =
  (match
     Plan.make ~seed:1
       [ { Plan.fault = Drop; schedule = Probability 1.5; scope = Anywhere } ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p > 1 accepted");
  (match
     Plan.make ~seed:1
       [ { Plan.fault = Drop; schedule = Every_nth 0; scope = Anywhere } ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "every-0 accepted");
  (match
     Plan.make ~seed:1
       [
         {
           Plan.fault = Arena_exhaust { soft_capacity = 64 };
           schedule = Probability 0.5;
           scope = Anywhere;
         };
       ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arena-exhaust without window accepted");
  match Plan.parse "frobnicate p=0.5" with
  | exception Plan.Parse_error _ -> ()
  | _ -> Alcotest.fail "garbage rule parsed"

let test_plan_parse_scoped () =
  let p = Plan.parse "seed 7\n# comment\ndrop p=0.25 ep=3\ndelay extra=500 every=4\n" in
  Alcotest.(check int) "seed" 7 p.Plan.seed;
  match p.Plan.rules with
  | [
   { Plan.fault = Drop; schedule = Probability 0.25; scope = Endpoint 3 };
   { Plan.fault = Delay { extra_ns = 500 }; schedule = Every_nth 4; scope = Anywhere };
  ] ->
      ()
  | _ -> Alcotest.fail "unexpected parse"

(* --- Fabric ------------------------------------------------------------- *)

let test_fabric_loss_validation () =
  let env = Test_env.make () in
  (match Net.Fabric.set_loss_rate env.Test_env.fabric 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "loss rate 1.5 accepted");
  match Net.Fabric.create ~loss_rate:(-0.1) (Sim.Engine.create ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative loss rate accepted"

let test_fabric_per_dst_drops () =
  let env = Test_env.make () in
  Net.Fabric.set_loss_rate env.Test_env.fabric 1.0;
  Net.Endpoint.send_string env.Test_env.a ~dst:2 "x";
  Net.Endpoint.send_string env.Test_env.a ~dst:2 "y";
  Sim.Engine.run_all env.Test_env.engine;
  Alcotest.(check int) "dropped" 2 (Net.Fabric.dropped env.Test_env.fabric);
  Alcotest.(check int) "dropped to 2" 2
    (Net.Fabric.dropped_to env.Test_env.fabric ~dst:2);
  Alcotest.(check (list (pair int int))) "by dst" [ (2, 2) ]
    (Net.Fabric.drops_by_dst env.Test_env.fabric);
  Alcotest.(check bool) "nothing delivered" true
    (Queue.is_empty env.Test_env.received_at_b)

let test_fabric_injected_faults_counted () =
  let env = Test_env.make () in
  let plan =
    Plan.make ~seed:11
      [ { Plan.fault = Corrupt; schedule = Every_nth 2; scope = Anywhere } ]
  in
  Net.Fabric.set_injector env.Test_env.fabric (Some (Injector.create plan));
  for _ = 1 to 4 do
    Net.Endpoint.send_string env.Test_env.a ~dst:2 "z"
  done;
  Sim.Engine.run_all env.Test_env.engine;
  (* every 2nd frame fails the receiver's FCS check *)
  Alcotest.(check int) "corrupted" 2 (Net.Fabric.corrupted env.Test_env.fabric);
  Alcotest.(check int) "dropped" 2 (Net.Fabric.dropped env.Test_env.fabric);
  Alcotest.(check int) "delivered" 2
    (Queue.length env.Test_env.received_at_b);
  Queue.iter (fun (_, buf) -> Mem.Pinned.Buf.decr_ref ~cpu:none buf)
    env.Test_env.received_at_b

(* --- Injector determinism ---------------------------------------------- *)

let test_injector_determinism () =
  let plan = Option.get (Plan.builtin "demo") in
  let drive inj =
    List.init 500 (fun i ->
        ( Injector.fabric_decision inj ~now:(i * 977) ~dst:(1 + (i mod 3)),
          Injector.completion_decision inj ~now:(i * 977) ~ep:1,
          Injector.service_stall inj ~now:(i * 977) ~ep:1 ))
  in
  let a = drive (Injector.create plan) and b = drive (Injector.create plan) in
  Alcotest.(check bool) "identical decision streams" true (a = b);
  let c = drive (Injector.create { plan with Plan.seed = 43 }) in
  Alcotest.(check bool) "different seed differs" true (a <> c)

(* --- Reliab: retry / backoff / give-up ---------------------------------- *)

let reliab_cfg =
  {
    Net.Reliab.timeout_ns = 1_000;
    max_retries = 2;
    backoff = 2.0;
    jitter = 0.0;
    reap_period_ns = 10_000;
  }

let test_reliab_retries_then_gives_up () =
  let engine = Sim.Engine.create () in
  let r = Net.Reliab.create ~config:reliab_cfg engine ~rng:(Sim.Rng.create ~seed:3) in
  let sends = ref 0 and gave_up = ref false in
  Net.Reliab.track r ~id:1
    ~send:(fun () -> incr sends)
    ~give_up:(fun () -> gave_up := true);
  Sim.Engine.run_all engine;
  Alcotest.(check int) "initial + 2 retries" 3 !sends;
  Alcotest.(check int) "retries" 2 (Net.Reliab.retries r);
  Alcotest.(check int) "give_ups" 1 (Net.Reliab.give_ups r);
  Alcotest.(check bool) "give_up callback" true !gave_up;
  Alcotest.(check int) "outstanding" 0 (Net.Reliab.outstanding r);
  (* backoff: expiries at 1000, 1000+2000, 1000+2000+4000 *)
  Alcotest.(check int) "engine time" 7_000 (Sim.Engine.now engine)

let test_reliab_ack_disarms () =
  let engine = Sim.Engine.create () in
  let r = Net.Reliab.create ~config:reliab_cfg engine ~rng:(Sim.Rng.create ~seed:3) in
  let sends = ref 0 in
  Net.Reliab.track r ~id:7 ~send:(fun () -> incr sends) ~give_up:ignore;
  Alcotest.(check bool) "first ack" true (Net.Reliab.ack r ~id:7 = `Acked);
  Alcotest.(check bool) "second ack dup" true (Net.Reliab.ack r ~id:7 = `Duplicate);
  Sim.Engine.run_all engine;
  Alcotest.(check int) "no retransmits" 1 !sends;
  Alcotest.(check int) "dup acks" 1 (Net.Reliab.dup_acks r);
  Net.Reliab.track r ~id:9 ~send:ignore ~give_up:ignore;
  match Net.Reliab.track r ~id:9 ~send:ignore ~give_up:ignore with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate track accepted"

(* Slot reuse in the id ring: an acked request's timer stays queued, so
   tracking the same id again before it fires must not let the stale
   timer act on the new request, and a window of ids wider than the ring
   grows it without losing a request. *)
let test_reliab_slot_reuse () =
  let engine = Sim.Engine.create () in
  let r = Net.Reliab.create ~config:reliab_cfg engine ~rng:(Sim.Rng.create ~seed:3) in
  let sends = ref 0 in
  Net.Reliab.track r ~id:5 ~send:ignore ~give_up:ignore;
  ignore (Net.Reliab.ack r ~id:5);
  Sim.Engine.run engine ~until:500;
  Net.Reliab.track r ~id:5 ~send:(fun () -> incr sends) ~give_up:ignore;
  (* The stale timer fires at 1000; the new request's first retry is due
     at 1500. *)
  Sim.Engine.run engine ~until:1_200;
  Alcotest.(check int) "stale timer sent nothing" 1 !sends;
  Alcotest.(check int) "still outstanding" 1 (Net.Reliab.outstanding r);
  Sim.Engine.run engine ~until:1_600;
  Alcotest.(check int) "own retry" 2 !sends;
  ignore (Net.Reliab.ack r ~id:5);
  for id = 100 to 1_099 do
    Net.Reliab.track r ~id ~send:ignore ~give_up:ignore
  done;
  Alcotest.(check int) "wide window outstanding" 1_000 (Net.Reliab.outstanding r);
  for id = 100 to 1_099 do
    if Net.Reliab.ack r ~id <> `Acked then Alcotest.failf "id %d lost" id
  done;
  Sim.Engine.run_all engine;
  Alcotest.(check int) "drained" 0 (Net.Reliab.outstanding r);
  Alcotest.(check int) "acks" 1_002 (Net.Reliab.acked r)

(* Resolving a request cancels its retransmit timer: after 1,000
   requests, each acked 2 us into its 90-110 us timeout, the engine holds
   at most the reaper. *)
let test_reliab_ack_cancels_timer () =
  let engine = Sim.Engine.create () in
  let r = Net.Reliab.create engine ~rng:(Sim.Rng.create ~seed:3) in
  Net.Reliab.set_reaper r ignore;
  for id = 1 to 1_000 do
    Net.Reliab.track r ~id ~send:ignore ~give_up:ignore;
    Sim.Engine.run engine ~until:(Sim.Engine.now engine + 2_000);
    if Net.Reliab.ack r ~id <> `Acked then Alcotest.failf "id %d not acked" id
  done;
  Alcotest.(check int) "outstanding" 0 (Net.Reliab.outstanding r);
  Alcotest.(check int) "no retries" 0 (Net.Reliab.retries r);
  if Sim.Engine.pending engine > 1 then
    Alcotest.failf "%d events still queued" (Sim.Engine.pending engine)

let test_reliab_reaper_runs_while_outstanding () =
  let engine = Sim.Engine.create () in
  let r =
    Net.Reliab.create
      ~config:{ reliab_cfg with max_retries = 0; timeout_ns = 25_000 }
      engine ~rng:(Sim.Rng.create ~seed:3)
  in
  let reaps = ref 0 in
  Net.Reliab.set_reaper r (fun () -> incr reaps);
  Net.Reliab.track r ~id:1 ~send:ignore ~give_up:ignore;
  Sim.Engine.run_all engine;
  (* reap every 10 us while the 25 us request was outstanding; then the
     engine quiesces (the reaper must not self-reschedule forever) *)
  Alcotest.(check bool) "reaped at least twice" true (!reaps >= 2)

let test_reliab_deadline_clamps_retries () =
  (* Unclamped, the schedule is send@0, retries at 1000 and 3000, give-up
     at 7000. A 2500 ns deadline admits only the first retry (timer at
     1000 < 2500); the request then resolves at the deadline itself. *)
  let engine = Sim.Engine.create () in
  let r =
    Net.Reliab.create ~config:reliab_cfg engine ~rng:(Sim.Rng.create ~seed:3)
  in
  let sends = ref 0 and gave_up = ref false in
  Net.Reliab.track r ~deadline_ns:2_500 ~id:1
    ~send:(fun () -> incr sends)
    ~give_up:(fun () -> gave_up := true);
  Sim.Engine.run_all engine;
  Alcotest.(check int) "initial + 1 clamped retry" 2 !sends;
  Alcotest.(check bool) "gave up" true !gave_up;
  Alcotest.(check int) "abandoned" 1 (Net.Reliab.abandoned r);
  Alcotest.(check int) "abandons count as give-ups" 1 (Net.Reliab.give_ups r);
  Alcotest.(check int) "outstanding" 0 (Net.Reliab.outstanding r);
  Alcotest.(check int) "resolved at the deadline" 2_500 (Sim.Engine.now engine)

let test_reliab_deadline_deterministic_abandon_time () =
  (* With jitter on, retransmit instants wobble per seed but the abandon
     instant is the deadline — identical across rng streams. *)
  let abandon_time ~seed =
    let engine = Sim.Engine.create () in
    let r =
      Net.Reliab.create
        ~config:{ reliab_cfg with jitter = 0.5 }
        engine
        ~rng:(Sim.Rng.create ~seed)
    in
    let at = ref (-1) in
    Net.Reliab.track r ~deadline_ns:2_200 ~id:1 ~send:ignore
      ~give_up:(fun () -> at := Sim.Engine.now engine);
    Sim.Engine.run_all engine;
    !at
  in
  Alcotest.(check int) "seed 3" 2_200 (abandon_time ~seed:3);
  Alcotest.(check int) "seed 99" 2_200 (abandon_time ~seed:99)

let test_reliab_ack_before_deadline () =
  let engine = Sim.Engine.create () in
  let r =
    Net.Reliab.create ~config:reliab_cfg engine ~rng:(Sim.Rng.create ~seed:3)
  in
  Net.Reliab.track r ~deadline_ns:2_500 ~id:1 ~send:ignore ~give_up:ignore;
  Alcotest.(check bool) "acked" true (Net.Reliab.ack r ~id:1 = `Acked);
  Sim.Engine.run_all engine;
  Alcotest.(check int) "no abandon after ack" 0 (Net.Reliab.abandoned r);
  match
    Net.Reliab.track r ~deadline_ns:0 ~id:2 ~send:ignore ~give_up:ignore
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive deadline accepted"

(* --- Dedup window ------------------------------------------------------- *)

let test_dedup_window () =
  let d = Net.Dedup.create ~capacity:2 () in
  Alcotest.(check bool) "new" true (Net.Dedup.witness d ~src:1 ~id:10 = `New);
  Alcotest.(check bool) "dup" true
    (Net.Dedup.witness d ~src:1 ~id:10 = `Duplicate);
  Alcotest.(check bool) "other src distinct" true
    (Net.Dedup.witness d ~src:2 ~id:10 = `New);
  (* capacity 2: witnessing a third distinct id evicts (1,10) *)
  Alcotest.(check bool) "third" true (Net.Dedup.witness d ~src:1 ~id:11 = `New);
  Alcotest.(check bool) "evicted forgets" true
    (Net.Dedup.witness d ~src:1 ~id:10 = `New);
  Alcotest.(check int) "evictions counted" 2 (Net.Dedup.evicted d);
  Alcotest.(check int) "duplicates" 1 (Net.Dedup.duplicates d)

(* --- NIC completion loss + reaping -------------------------------------- *)

let lose_all = Some (fun ~now:_ -> Some `Lose)

let test_completion_loss_pins_refs_until_reap () =
  let env = Test_env.make () in
  let pool = Test_env.data_pool env in
  let value = Test_env.pinned_of_string pool (String.make 1024 'v') in
  Mem.Pinned.Buf.incr_ref ~cpu:none value;
  let nic = Net.Endpoint.nic env.Test_env.a in
  Nic.Device.set_completion_fault nic lose_all;
  let staging = Net.Endpoint.alloc_tx env.Test_env.a ~len:Net.Packet.header_len in
  Net.Endpoint.send_inline env.Test_env.a ~dst:2
    ~head:staging ~zc:[| value |] ~zc_n:1;
  Sim.Engine.run_all env.Test_env.engine;
  (* the wire side still delivered (egress is unaffected)... *)
  Alcotest.(check int) "delivered" 1 (Queue.length env.Test_env.received_at_b);
  (* ...but the CQE never arrived: references stay pinned, the ring slot
     stays occupied *)
  Alcotest.(check int) "ref still held" 2 (Mem.Pinned.Buf.refcount value);
  Alcotest.(check int) "cqe lost" 1 (Nic.Device.lost_completions nic);
  Alcotest.(check int) "slot occupied" 1 (Nic.Device.in_flight nic);
  Alcotest.(check int) "reaped" 1 (Nic.Device.reap_lost nic);
  Alcotest.(check int) "ref released" 1 (Mem.Pinned.Buf.refcount value);
  Alcotest.(check int) "slot freed" 0 (Nic.Device.in_flight nic);
  Mem.Pinned.Buf.decr_ref ~cpu:none value;
  Queue.iter (fun (_, buf) -> Mem.Pinned.Buf.decr_ref ~cpu:none buf)
    env.Test_env.received_at_b

let test_lost_completion_flags_stuck_hold () =
  with_san (fun () ->
      let env = Test_env.make () in
      let pool = Test_env.data_pool env in
      let value = Test_env.pinned_of_string pool (String.make 1024 'v') in
      Mem.Pinned.Buf.incr_ref ~cpu:none value;
      let nic = Net.Endpoint.nic env.Test_env.a in
      Nic.Device.set_completion_fault nic lose_all;
      let staging =
        Net.Endpoint.alloc_tx env.Test_env.a ~len:Net.Packet.header_len
      in
      Net.Endpoint.send_inline env.Test_env.a ~dst:2
        ~head:staging ~zc:[| value |] ~zc_n:1;
      Sim.Engine.run_all env.Test_env.engine;
      (* a quiesce with the CQE still lost is a ledger hazard *)
      Alcotest.(check bool) "stuck holds flagged" true
        (Refsan.flag_stuck_holds () > 0);
      Alcotest.(check bool) "counted as hazard" true (Refsan.hazard_count () > 0);
      (* reaping recovers the references; no new stuck holds remain *)
      Alcotest.(check int) "reaped" 1 (Nic.Device.reap_lost nic);
      Alcotest.(check int) "no new stuck holds" 0 (Refsan.flag_stuck_holds ());
      Mem.Pinned.Buf.decr_ref ~cpu:none value;
      Queue.iter (fun (_, buf) -> Mem.Pinned.Buf.decr_ref ~cpu:none buf)
        env.Test_env.received_at_b)

(* --- Arena soft capacity ------------------------------------------------ *)

let test_arena_soft_capacity () =
  let space = Mem.Addr_space.create () in
  let arena = Mem.Arena.create space ~capacity:8192 in
  let src = Mem.View.of_string space (String.make 512 's') in
  ignore (Mem.Arena.copy_in ~cpu:none arena src);
  Mem.Arena.set_soft_capacity arena (Some (Mem.Arena.used arena + 100));
  (match Mem.Arena.copy_in ~cpu:none arena src with
  | exception Mem.Pinned.Out_of_memory _ -> ()
  | _ -> Alcotest.fail "soft capacity not enforced");
  Alcotest.(check int) "oom counted" 1 (Mem.Arena.oom_events arena);
  Mem.Arena.set_soft_capacity arena None;
  ignore (Mem.Arena.copy_in ~cpu:none arena src);
  Alcotest.(check int) "no further ooms" 1 (Mem.Arena.oom_events arena)

let test_arena_window_scheduled_on_rig () =
  let rig = Apps.Rig.create ~seed:1 () in
  let plan =
    Plan.make ~seed:1
      [
        {
          Plan.fault = Arena_exhaust { soft_capacity = 128 };
          schedule = Window { from_ns = 1_000; until_ns = 5_000; p = 1.0 };
          scope = Endpoint Apps.Rig.server_id;
        };
      ]
  in
  Apps.Rig.inject_faults rig (Injector.create plan);
  let server_arena = Net.Endpoint.arena rig.Apps.Rig.server_ep in
  let client_arena = Net.Transport.arena (List.hd rig.Apps.Rig.clients) in
  let during = ref (Some (-1)) and client_during = ref (Some (-1)) in
  Sim.Engine.schedule rig.Apps.Rig.engine ~after:2_000 (fun () ->
      during := Mem.Arena.soft_capacity server_arena;
      client_during := Mem.Arena.soft_capacity client_arena);
  Alcotest.(check (option int)) "before window" None
    (Mem.Arena.soft_capacity server_arena);
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Alcotest.(check (option int)) "inside window" (Some 128) !during;
  Alcotest.(check (option int)) "scoped: client untouched" None !client_during;
  Alcotest.(check (option int)) "after window" None
    (Mem.Arena.soft_capacity server_arena)

(* --- Zero-copy demotion under ring pressure ----------------------------- *)

let test_pressure_demotes_zero_copy () =
  let small_ring =
    { Nic.Model.mellanox_cx6 with Nic.Model.tx_ring_entries = 8 }
  in
  let env = Test_env.make ~nic_model:small_ring () in
  let pool = Test_env.data_pool env in
  let nic = Net.Endpoint.nic env.Test_env.a in
  (* jam the ring: lose every completion so slots stay occupied *)
  Nic.Device.set_completion_fault nic lose_all;
  for _ = 1 to 4 do
    Net.Endpoint.send_string env.Test_env.a ~dst:2 "jam"
  done;
  Sim.Engine.run_all env.Test_env.engine;
  Alcotest.(check bool) "under pressure" true
    (Net.Endpoint.under_pressure env.Test_env.a);
  let value = Test_env.pinned_of_string pool (String.make 1024 'v') in
  let cf = Cornflakes.Config.default in
  let msg = Wire.Dyn.create Apps.Proto.resp in
  Wire.Dyn.set_int msg "id" 1L;
  Wire.Dyn.append msg "vals"
    (Wire.Dyn.Payload (Cornflakes.Cf_ptr.make ~cpu:none cf env.Test_env.a
                         (Mem.Pinned.Buf.view value)));
  let demote0 = Cornflakes.Send.pressure_demotions () in
  Cornflakes.Send.send_object cf env.Test_env.a ~dst:2 msg;
  Alcotest.(check int) "demoted one field" 1
    (Cornflakes.Send.pressure_demotions () - demote0);
  (* demoted send copies into the arena: no lingering reference on the
     value even though its completion was lost *)
  ignore (Nic.Device.reap_lost nic);
  Alcotest.(check int) "value not pinned by send" 1
    (Mem.Pinned.Buf.refcount value);
  Sim.Engine.run_all env.Test_env.engine;
  Mem.Pinned.Buf.decr_ref ~cpu:none value;
  Queue.iter (fun (_, buf) -> Mem.Pinned.Buf.decr_ref ~cpu:none buf)
    env.Test_env.received_at_b

(* --- End-to-end exactly-once under faults ------------------------------- *)

(* A short faulted kv run with the full resilience stack; returns the
   pieces the assertions need. Mirrors `bench faults` at miniature scale. *)
let run_faulted ~seed ~plan ~duration_ns =
  let rig = Apps.Rig.create ~seed () in
  let app =
    Apps.Kv_app.install rig ~backend:(Apps.Backend.cornflakes ())
      ~workload:(Workload.Twitter.make ())
  in
  let dedup = Net.Dedup.create () in
  Apps.Kv_app.enable_resilience app ~dedup;
  Apps.Rig.inject_faults rig (Injector.create plan);
  let reliab =
    Net.Reliab.create
      ~config:
        {
          Net.Reliab.timeout_ns = 100_000;
          max_retries = 6;
          backoff = 1.6;
          jitter = 0.1;
          reap_period_ns = 250_000;
        }
      rig.Apps.Rig.engine
      ~rng:(Sim.Rng.split rig.Apps.Rig.rng)
  in
  Net.Reliab.set_reaper reliab (fun () -> ignore (Apps.Rig.reap_lost rig));
  let r =
    Loadgen.Driver.closed_loop ~reliab rig.Apps.Rig.engine
      ~clients:rig.Apps.Rig.clients ~server:Apps.Rig.server_id ~outstanding:2
      ~duration_ns ~warmup_ns:0 ~rng:rig.Apps.Rig.rng
      ~send:(fun ep ~dst ~id -> Apps.Kv_app.send_next app ep ~dst ~id)
      ~parse_id:(Some (fun buf -> Apps.Kv_app.parse_id app buf))
  in
  ignore (Apps.Rig.reap_lost rig);
  Sim.Engine.run_all rig.Apps.Rig.engine;
  (rig, app, reliab, r)

let check_exactly_once ~label (rig, app, reliab, (r : Loadgen.Driver.result)) =
  Alcotest.(check bool) (label ^ ": made progress") true (r.completed > 0);
  Alcotest.(check int) (label ^ ": nothing outstanding") 0
    (Net.Reliab.outstanding reliab);
  Alcotest.(check int)
    (label ^ ": every tracked request acked or given up")
    (Net.Reliab.tracked reliab)
    (Net.Reliab.acked reliab + Net.Reliab.give_ups reliab);
  List.iter
    (fun (id, n) ->
      if n <> 1 then
        Alcotest.failf "%s: put id %d applied %d times" label id n)
    (Apps.Kv_app.put_apply_counts app);
  ignore rig

let test_exactly_once_loss_1pct () =
  (* the acceptance plan: 1% drop + 0.1% completion loss on the server *)
  let plan = Option.get (Plan.builtin "loss-1pct") in
  let run = run_faulted ~seed:42 ~plan ~duration_ns:1_500_000 in
  let _, _, reliab, (r : Loadgen.Driver.result) = run in
  check_exactly_once ~label:"loss-1pct" run;
  Alcotest.(check int) "no request abandoned" 0 (Net.Reliab.give_ups reliab);
  Alcotest.(check bool) "retries happened" true (r.retransmits > 0)

let test_exactly_once_sanitized () =
  with_san (fun () ->
      let plan = Option.get (Plan.builtin "demo") in
      let run = run_faulted ~seed:9 ~plan ~duration_ns:800_000 in
      check_exactly_once ~label:"demo" run;
      let rig, _, _, _ = run in
      Sim.Engine.quiesce rig.Apps.Rig.engine;
      Alcotest.(check int) "refsan leaks" 0 (List.length (Refsan.leaks ()));
      Alcotest.(check int) "refsan hazards" 0 (Refsan.hazard_count ()))

(* Property: under ANY seeded fault plan (random rates), the resilient kv
   loop keeps exactly-once apply semantics. *)
let prop_exactly_once =
  QCheck.Test.make ~name:"faulted kv run is exactly-once" ~count:8
    QCheck.small_nat (fun n ->
      let rng = Sim.Rng.create ~seed:(n + 1) in
      let p () = Sim.Rng.float rng *. 0.08 in
      let plan =
        Plan.make ~seed:(n * 31 + 5)
          [
            { Plan.fault = Drop; schedule = Probability (p ()); scope = Anywhere };
            {
              Plan.fault = Duplicate;
              schedule = Probability (p ());
              scope = Anywhere;
            };
            {
              Plan.fault = Completion_loss;
              schedule = Probability (p () /. 4.);
              scope = Endpoint Apps.Rig.server_id;
            };
          ]
      in
      let rig, app, reliab, _ = run_faulted ~seed:n ~plan ~duration_ns:600_000 in
      ignore rig;
      Net.Reliab.outstanding reliab = 0
      && Net.Reliab.acked reliab + Net.Reliab.give_ups reliab
         = Net.Reliab.tracked reliab
      && List.for_all (fun (_, c) -> c = 1) (Apps.Kv_app.put_apply_counts app))

let suite =
  [
    Alcotest.test_case "plan builtins round-trip" `Quick test_plan_round_trip;
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "plan parse scoped rules" `Quick test_plan_parse_scoped;
    Alcotest.test_case "fabric loss-rate validation" `Quick
      test_fabric_loss_validation;
    Alcotest.test_case "fabric per-dst drop counts" `Quick
      test_fabric_per_dst_drops;
    Alcotest.test_case "fabric injected faults counted" `Quick
      test_fabric_injected_faults_counted;
    Alcotest.test_case "injector determinism" `Quick test_injector_determinism;
    Alcotest.test_case "reliab retries then gives up" `Quick
      test_reliab_retries_then_gives_up;
    Alcotest.test_case "reliab ack disarms timer" `Quick test_reliab_ack_disarms;
    Alcotest.test_case "reliab slot reuse" `Quick test_reliab_slot_reuse;
    Alcotest.test_case "reliab ack cancels the timer" `Quick
      test_reliab_ack_cancels_timer;
    Alcotest.test_case "reliab reaper cadence" `Quick
      test_reliab_reaper_runs_while_outstanding;
    Alcotest.test_case "reliab deadline clamps retries" `Quick
      test_reliab_deadline_clamps_retries;
    Alcotest.test_case "reliab deadline abandon is deterministic" `Quick
      test_reliab_deadline_deterministic_abandon_time;
    Alcotest.test_case "reliab ack before deadline" `Quick
      test_reliab_ack_before_deadline;
    Alcotest.test_case "dedup window" `Quick test_dedup_window;
    Alcotest.test_case "completion loss pins refs until reap" `Quick
      test_completion_loss_pins_refs_until_reap;
    Alcotest.test_case "lost completion is a stuck-hold hazard" `Quick
      test_lost_completion_flags_stuck_hold;
    Alcotest.test_case "arena soft capacity" `Quick test_arena_soft_capacity;
    Alcotest.test_case "arena window scheduled on rig" `Quick
      test_arena_window_scheduled_on_rig;
    Alcotest.test_case "pressure demotes zero-copy" `Quick
      test_pressure_demotes_zero_copy;
    Alcotest.test_case "exactly-once under loss-1pct" `Quick
      test_exactly_once_loss_1pct;
    Alcotest.test_case "exactly-once sanitized (demo plan)" `Quick
      test_exactly_once_sanitized;
    QCheck_alcotest.to_alcotest prop_exactly_once;
  ]

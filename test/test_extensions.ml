(* Tests for the section-7 extensions: copy-on-write smart pointers and the
   adaptive zero-copy threshold. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

let make_pool () =
  let space = Mem.Addr_space.create () in
  let pool =
    Mem.Pinned.Pool.create space ~name:"cow" ~classes:[ (1024, 32) ]
  in
  (space, pool)

let test_cow_write_in_place_when_exclusive () =
  let _space, pool = make_pool () in
  let c = Cow_buf.create ~cpu:none pool ~len:100 in
  let before = Mem.Pinned.Buf.addr (Cow_buf.buf c) in
  Cow_buf.write ~cpu:none c ~off:0 "exclusive";
  Alcotest.(check int) "no clone" 0 (Cow_buf.cow_count c);
  Alcotest.(check int) "same buffer" before
    (Mem.Pinned.Buf.addr (Cow_buf.buf c));
  Cow_buf.release ~cpu:none c

let test_cow_clones_when_shared () =
  let _space, pool = make_pool () in
  let c = Cow_buf.create ~cpu:none pool ~len:64 in
  Cow_buf.write ~cpu:none c ~off:0 "original-bytes!!";
  (* A pending zero-copy send takes its reference... *)
  let in_flight = Cow_buf.buf c in
  Mem.Pinned.Buf.incr_ref ~cpu:none in_flight;
  Alcotest.(check bool) "shared" true (Cow_buf.shared c);
  (* ... and the application overwrites the value. *)
  Cow_buf.write ~cpu:none c ~off:0 "updated-bytes!!!";
  Alcotest.(check int) "one clone" 1 (Cow_buf.cow_count c);
  (* The DMA still sees the original bytes, untouched. *)
  Alcotest.(check string) "in-flight bytes intact" "original-bytes!!"
    (String.sub (Mem.View.to_string (Mem.Pinned.Buf.view in_flight)) 0 16);
  (* The application sees the new value. *)
  Alcotest.(check string) "new value visible" "updated-bytes!!!"
    (String.sub
       (Mem.View.to_string (Mem.Pinned.Buf.view (Cow_buf.buf c)))
       0 16);
  Mem.Pinned.Buf.decr_ref ~cpu:none in_flight;
  Cow_buf.release ~cpu:none c;
  Alcotest.(check int) "all returned" 0 (Mem.Pinned.Pool.live pool)

let test_cow_write_after_completion_is_in_place () =
  let _space, pool = make_pool () in
  let c = Cow_buf.create ~cpu:none pool ~len:64 in
  let b = Cow_buf.buf c in
  Mem.Pinned.Buf.incr_ref ~cpu:none b;
  Mem.Pinned.Buf.decr_ref ~cpu:none b;
  (* transmission completed *)
  Cow_buf.write ~cpu:none c ~off:0 "x";
  Alcotest.(check int) "no clone needed" 0 (Cow_buf.cow_count c);
  Cow_buf.release ~cpu:none c

let test_cow_bounds () =
  let _space, pool = make_pool () in
  let c = Cow_buf.create ~cpu:none pool ~len:8 in
  Alcotest.check_raises "oob" (Invalid_argument "Cow_buf.write: out of bounds")
    (fun () -> Cow_buf.write ~cpu:none c ~off:4 "too-long");
  Cow_buf.release ~cpu:none c

(* Adaptive threshold: drive constructions through a real endpoint and
   check the estimate converges near the static calibration (512 B). *)
let adaptive_converges ~params ()=
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let cpu = Memmodel.Cpu.create params in
  let ep = Net.Endpoint.create ~cpu fabric registry ~id:1 in
  let pool =
    Mem.Pinned.Pool.create space ~name:"adapt"
      ~classes:[ (1024, 4096); (8192, 512) ]
  in
  Mem.Registry.register registry pool;
  (* A working set larger than L3, like the measurement study. *)
  let values =
    Array.init 4000 (fun i ->
        let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:(if i mod 2 = 0 then 700 else 300) in
        Mem.Pinned.Buf.fill ~cpu:none buf (Workload.Spec.filler (Mem.Pinned.Buf.len buf));
        buf)
  in
  let adaptive = Cornflakes.Adaptive.create () in
  let config = { Cornflakes.Config.default with zero_copy = adaptive } in
  let rng = Sim.Rng.create ~seed:99 in
  for _ = 1 to 20_000 do
    let buf = values.(Sim.Rng.int rng (Array.length values)) in
    let p = Cornflakes.Cf_ptr.make ~cpu config ep (Mem.Pinned.Buf.view buf) in
    Wire.Payload.release ~cpu:none p;
    Mem.Arena.reset (Net.Endpoint.arena ep)
  done;
  Cornflakes.Adaptive.threshold adaptive

let test_adaptive_converges_near_static () =
  let t = adaptive_converges ~params:Memmodel.Params.default () in
  if t < 192 || t > 1024 then
    Alcotest.failf "adaptive threshold %d far from the static 512" t

let test_adaptive_tracks_memory_pressure () =
  (* With memory bandwidth pressure (slower streaming copies), copies get
     more expensive per byte, so the threshold must drop (paper section 7:
     the crossover moves with bandwidth pressure). *)
  let slow =
    {
      Memmodel.Params.default with
      Memmodel.Params.stream_dram =
        3.0 *. Memmodel.Params.default.Memmodel.Params.stream_dram;
    }
  in
  let base = adaptive_converges ~params:Memmodel.Params.default () in
  let pressured = adaptive_converges ~params:slow () in
  if pressured >= base then
    Alcotest.failf "threshold should drop under pressure: %d -> %d" base
      pressured

(* Eight kv GETs served by [backend] on a rig whose server is metered. *)
let kv_gets backend =
  let rig = Apps.Rig.create ~n_clients:1 () in
  let app =
    Apps.Kv_app.install rig ~backend
      ~workload:(Workload.Twitter.make ~n_keys:256 ())
  in
  let client = List.hd rig.Apps.Rig.clients in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      Mem.Pinned.Buf.decr_ref ~cpu:none buf);
  for id = 1 to 8 do
    let key = Printf.sprintf "tw:%016d" id in
    Apps.Kv_app.send_op app
      (Workload.Spec.Get { keys = [ key ] })
      client ~dst:Apps.Rig.server_id ~id;
    Sim.Engine.run_all rig.Apps.Rig.engine
  done

(* The adaptive-threshold ablation's backend reaches its cell on the kv
   GET path: the stored values it answers with are held buffers
   ([make_buf]), so a cell read only by [make] would stay unobserved. *)
let test_ablation_backend_observes_gets () =
  let adaptive = Cornflakes.Adaptive.create ~initial:2048 () in
  kv_gets (Experiments.Exp_ablations.adaptive_backend adaptive);
  if Cornflakes.Adaptive.observations adaptive = 0 then
    Alcotest.fail "8 kv GETs made no adaptive observation"

(* Fixed cells are never written: [Config.default]'s cell is shared by
   every parallel harness domain. Neither metered GETs through the
   default backend nor direct updates move it, and the all-copy and
   all-zero-copy cells keep their unclamped extremes. *)
let test_fixed_cell_is_read_only () =
  let cell = Cornflakes.Config.default.Cornflakes.Config.zero_copy in
  let check_default what =
    Alcotest.(check int) (what ^ ": threshold") 512
      (Cornflakes.Adaptive.threshold cell);
    Alcotest.(check int) (what ^ ": observations") 0
      (Cornflakes.Adaptive.observations cell);
    Alcotest.(check (pair (float 0.0) (float 0.0)))
      (what ^ ": estimates") (1.0, 512.0)
      (Cornflakes.Adaptive.estimates cell)
  in
  kv_gets (Apps.Backend.cornflakes ());
  check_default "after kv GETs";
  Cornflakes.Adaptive.observe_zc cell ~cycles:1.0;
  Cornflakes.Adaptive.observe_copy cell ~bytes:100 ~cycles:1_000_000.0;
  let cpu = Memmodel.Cpu.create Memmodel.Params.default in
  Cornflakes.Adaptive.learn cell ~cpu ~c0:(-1000.0) ~len:100
    (Wire.Payload.Literal (Mem.View.of_string (Mem.Addr_space.create ()) "x"));
  check_default "after direct updates";
  Alcotest.(check int) "all-copy threshold" max_int
    (Cornflakes.Adaptive.threshold
       Cornflakes.Config.all_copy.Cornflakes.Config.zero_copy);
  Alcotest.(check int) "all-zero-copy threshold" 0
    (Cornflakes.Adaptive.threshold
       Cornflakes.Config.all_zero_copy.Cornflakes.Config.zero_copy)

let test_adaptive_without_cpu_is_static () =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let ep = Net.Endpoint.create ~cpu:none fabric registry ~id:1 in
  let adaptive = Cornflakes.Adaptive.create ~initial:512 () in
  let v = Mem.View.of_string space "hello" in
  let config = { Cornflakes.Config.default with zero_copy = adaptive } in
  let (_ : Wire.Payload.t) = Cornflakes.Cf_ptr.make ~cpu:none config ep v in
  Alcotest.(check int) "unchanged" 512 (Cornflakes.Adaptive.threshold adaptive);
  Alcotest.(check int) "no observations recorded" 0
    (Cornflakes.Adaptive.observations adaptive)

let test_adaptive_clamp_bounds () =
  (* The threshold is clamped to [64, 8192] both at creation... *)
  let lo = Cornflakes.Adaptive.create ~initial:1 () in
  Alcotest.(check int) "floor at create" 64 (Cornflakes.Adaptive.threshold lo);
  let hi = Cornflakes.Adaptive.create ~initial:100_000 () in
  Alcotest.(check int) "ceiling at create" 8192
    (Cornflakes.Adaptive.threshold hi);
  (* ... and on every refresh, however extreme the observations. *)
  let t = Cornflakes.Adaptive.create () in
  for _ = 1 to 500 do
    Cornflakes.Adaptive.observe_zc t ~cycles:1.0;
    Cornflakes.Adaptive.observe_copy t ~bytes:1 ~cycles:100.0
  done;
  Alcotest.(check int) "floor under cheap zc" 64
    (Cornflakes.Adaptive.threshold t);
  let u = Cornflakes.Adaptive.create () in
  for _ = 1 to 500 do
    Cornflakes.Adaptive.observe_zc u ~cycles:1_000_000.0;
    Cornflakes.Adaptive.observe_copy u ~bytes:1000 ~cycles:1.0
  done;
  Alcotest.(check int) "ceiling under expensive zc" 8192
    (Cornflakes.Adaptive.threshold u)

let test_adaptive_ewma_converges_on_synthetic () =
  (* Steady synthetic observations: copies cost 2 cycles/byte, zero-copy
     metadata costs 1000 fixed cycles, so the crossover is 500 bytes. The
     EWMA must converge there from a far-off initial estimate. *)
  let t = Cornflakes.Adaptive.create ~initial:4096 ~alpha:0.05 () in
  for _ = 1 to 400 do
    Cornflakes.Adaptive.observe_copy t ~bytes:256 ~cycles:512.0;
    Cornflakes.Adaptive.observe_zc t ~cycles:1000.0
  done;
  let th = Cornflakes.Adaptive.threshold t in
  if th < 480 || th > 520 then
    Alcotest.failf "EWMA should converge to ~500, got %d" th;
  Alcotest.(check int) "observations counted" 800
    (Cornflakes.Adaptive.observations t);
  let copy, zc = Cornflakes.Adaptive.estimates t in
  if abs_float (copy -. 2.0) > 0.05 then
    Alcotest.failf "copy estimate should be ~2 cycles/byte, got %.3f" copy;
  if abs_float (zc -. 1000.0) > 25.0 then
    Alcotest.failf "zc estimate should be ~1000 cycles, got %.1f" zc

let test_adaptive_zero_byte_copy_ignored () =
  let t = Cornflakes.Adaptive.create () in
  Cornflakes.Adaptive.observe_copy t ~bytes:0 ~cycles:1_000_000.0;
  Alcotest.(check int) "no observation recorded" 0
    (Cornflakes.Adaptive.observations t);
  Alcotest.(check int) "threshold unchanged" 512
    (Cornflakes.Adaptive.threshold t)

(* [Cf_ptr.of_buf] with a learning cell on an already-referenced buffer:
   at or above the threshold the payload takes over the reference and the
   cell observes the completion-side release; below it the bytes are
   copied, the reference dropped and the cycles per byte observed; a
   zero-byte copy observes nothing. *)
let test_adaptive_of_buf_arms () =
  let cpu = Memmodel.Cpu.create Memmodel.Params.default in
  let env = Test_env.make ~cpu_b:cpu () in
  let ep = env.Test_env.b in
  let pool = Test_env.data_pool env in
  let a = Cornflakes.Adaptive.create ~initial:512 () in
  let completion = Memmodel.Params.default.Memmodel.Params.cost_completion_per_sge in
  (* Zero-copy arm: the caller's payload itself comes back, its one
     reference untouched. *)
  let big = Test_env.pinned_of_string pool (String.make 1024 'z') in
  let big_p = Wire.Payload.Zero_copy big in
  (match Cornflakes.Cf_ptr.of_buf ~cpu a ep big_p with
  | Wire.Payload.Zero_copy b as p ->
      Alcotest.(check bool) "same payload block" true (p == big_p);
      Alcotest.(check int) "reference kept" 1 (Mem.Pinned.Buf.refcount big);
      Mem.Pinned.Buf.decr_ref ~cpu:none b
  | _ -> Alcotest.fail "1024 B at threshold 512 must stay zero-copy");
  Alcotest.(check int) "zc observed" 1 (Cornflakes.Adaptive.observations a);
  let _, zc = Cornflakes.Adaptive.estimates a in
  Alcotest.(check (float 1e-9)) "zc estimate takes the completion cost"
    ((0.95 *. 512.0) +. (0.05 *. completion))
    zc;
  (* Copy arm: the handed-in reference is dropped. *)
  let small = Test_env.pinned_of_string pool (String.make 100 's') in
  Mem.Pinned.Buf.incr_ref ~cpu:none small;
  (match Cornflakes.Cf_ptr.of_buf ~cpu a ep (Wire.Payload.Zero_copy small) with
  | Wire.Payload.Copied v ->
      Alcotest.(check string) "copy is faithful" (String.make 100 's')
        (Mem.View.to_string v)
  | _ -> Alcotest.fail "100 B below the threshold must be copied");
  Alcotest.(check int) "refcount back to its prior value" 1
    (Mem.Pinned.Buf.refcount small);
  Alcotest.(check int) "copy observed" 2 (Cornflakes.Adaptive.observations a);
  let copy, _ = Cornflakes.Adaptive.estimates a in
  if copy = 1.0 then Alcotest.fail "copy estimate should move";
  (* A zero-byte copy: nothing to learn per byte, no observation. *)
  let empty = Mem.Pinned.Buf.sub small ~off:0 ~len:0 in
  Mem.Pinned.Buf.incr_ref ~cpu:none empty;
  (match Cornflakes.Cf_ptr.of_buf ~cpu a ep (Wire.Payload.Zero_copy empty) with
  | Wire.Payload.Copied _ -> ()
  | _ -> Alcotest.fail "an empty buffer must be copied");
  Alcotest.(check int) "zero-byte copy not observed" 2
    (Cornflakes.Adaptive.observations a);
  Alcotest.(check int) "empty copy drops its reference" 1
    (Mem.Pinned.Buf.refcount small);
  Mem.Pinned.Buf.decr_ref ~cpu:none small

let suite =
  [
    Alcotest.test_case "cow write in place" `Quick
      test_cow_write_in_place_when_exclusive;
    Alcotest.test_case "cow clones when shared" `Quick test_cow_clones_when_shared;
    Alcotest.test_case "cow after completion" `Quick
      test_cow_write_after_completion_is_in_place;
    Alcotest.test_case "cow bounds" `Quick test_cow_bounds;
    Alcotest.test_case "adaptive converges" `Slow test_adaptive_converges_near_static;
    Alcotest.test_case "adaptive tracks pressure" `Slow
      test_adaptive_tracks_memory_pressure;
    Alcotest.test_case "adaptive without cpu" `Quick test_adaptive_without_cpu_is_static;
    Alcotest.test_case "adaptive ablation backend observes kv GETs" `Quick
      test_ablation_backend_observes_gets;
    Alcotest.test_case "fixed policy cell is read-only" `Quick
      test_fixed_cell_is_read_only;
    Alcotest.test_case "adaptive clamp bounds" `Quick test_adaptive_clamp_bounds;
    Alcotest.test_case "adaptive ewma converges on synthetic" `Quick
      test_adaptive_ewma_converges_on_synthetic;
    Alcotest.test_case "adaptive ignores zero-byte copy" `Quick
      test_adaptive_zero_byte_copy_ignored;
    Alcotest.test_case "adaptive of_buf arms" `Quick test_adaptive_of_buf_arms;
  ]

(* Tests for the discrete-event engine, PRNG, and samplers. *)

let test_heap_ordering () =
  let h = Sim.Heap.create ~dummy:0 in
  let rng = Sim.Rng.create ~seed:42 in
  let n = 1000 in
  for i = 0 to n - 1 do
    Sim.Heap.push h ~time:(Sim.Rng.int rng 500) ~seq:i i
  done;
  Alcotest.(check int) "length" n (Sim.Heap.length h);
  let prev = ref (-1, -1) in
  for _ = 1 to n do
    match Sim.Heap.pop_min h with
    | None -> Alcotest.fail "heap empty too early"
    | Some (time, seq, _) ->
        let t, s = !prev in
        if time < t || (time = t && seq < s) then
          Alcotest.fail "heap order violated";
        prev := (time, seq)
  done;
  Alcotest.(check bool) "empty" true (Sim.Heap.is_empty h)

let test_heap_fifo_same_time () =
  let h = Sim.Heap.create ~dummy:0 in
  for i = 0 to 9 do
    Sim.Heap.push h ~time:7 ~seq:i i
  done;
  for i = 0 to 9 do
    match Sim.Heap.pop_min h with
    | Some (_, _, v) -> Alcotest.(check int) "fifo" i v
    | None -> Alcotest.fail "missing element"
  done

let test_engine_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~after:30 (fun () -> log := 3 :: !log);
  Sim.Engine.schedule e ~after:10 (fun () -> log := 1 :: !log);
  Sim.Engine.schedule e ~after:20 (fun () ->
      log := 2 :: !log;
      (* Events scheduled from within events still run in order. *)
      Sim.Engine.schedule e ~after:5 (fun () -> log := 25 :: !log));
  Sim.Engine.run_all e;
  Alcotest.(check (list int)) "order" [ 1; 2; 25; 3 ] (List.rev !log);
  Alcotest.(check int) "clock" 30 (Sim.Engine.now e)

let test_engine_until () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule e ~after:100 (fun () -> incr fired);
  Sim.Engine.schedule e ~after:200 (fun () -> incr fired);
  Sim.Engine.run e ~until:150;
  Alcotest.(check int) "only first" 1 !fired;
  Alcotest.(check int) "clock at until" 150 (Sim.Engine.now e);
  Sim.Engine.run e ~until:300;
  Alcotest.(check int) "second fired" 2 !fired

let test_engine_rejects_past () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~after:10 (fun () -> ());
  Sim.Engine.run_all e;
  Alcotest.check_raises "past" (Invalid_argument
    "Engine.schedule_at: time 5 is before now 10")
    (fun () -> Sim.Engine.schedule_at e ~time:5 (fun () -> ()))

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:7 and b = Sim.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.next_int64 a)
      (Sim.Rng.next_int64 b)
  done

let test_rng_float_range () =
  let r = Sim.Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let f = Sim.Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of range"
  done

let test_rng_split_independent () =
  let a = Sim.Rng.create ~seed:7 in
  let b = Sim.Rng.split a in
  let xa = Sim.Rng.next_int64 a and xb = Sim.Rng.next_int64 b in
  Alcotest.(check bool) "different streams" true (not (Int64.equal xa xb))

(* Golden outputs: the first 1,000 draws of each kind from each way of
   making a generator, digested. Every simulated number in the repo is a
   function of these streams, so a change to the generator's
   representation must leave them bit-identical. *)
let rng_digest r =
  let b = Buffer.create (4 * 8 * 1000) in
  for _ = 1 to 1000 do
    Buffer.add_int64_le b (Sim.Rng.next_int64 r)
  done;
  for _ = 1 to 1000 do
    Buffer.add_int64_le b (Int64.bits_of_float (Sim.Rng.float r))
  done;
  for _ = 1 to 1000 do
    Buffer.add_int64_le b (Int64.of_int (Sim.Rng.int r 1_000_003))
  done;
  for _ = 1 to 1000 do
    Buffer.add_char b (if Sim.Rng.bool r 0.3 then '1' else '0')
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_rng_golden () =
  let check name expected r =
    Alcotest.(check string) name expected (rng_digest r)
  in
  check "create" "31cb115be7b98eaa3ca01ba0809954ab" (Sim.Rng.create ~seed:42);
  check "split" "b4b5e766419994babbef6992b0808069" (Sim.Rng.split (Sim.Rng.create ~seed:7));
  check "stream" "9dccc09c11778c40bb92e7c6139be328" (Sim.Rng.stream ~seed:3 ~index:5);
  let r = Sim.Rng.create ~seed:0 in
  Sim.Rng.set_state r 0x123456789ABCDEF0L;
  check "set_state" "1f89851dc9a9b6a463891d522417e026" r;
  (* [state] round-trips: a rehydrated copy continues the same stream. *)
  let a = Sim.Rng.create ~seed:99 in
  ignore (Sim.Rng.next_int64 a);
  let b = Sim.Rng.create ~seed:0 in
  Sim.Rng.set_state b (Sim.Rng.state a);
  Alcotest.(check int64) "state round-trip" (Sim.Rng.next_int64 a)
    (Sim.Rng.next_int64 b)

(* Minor words allocated by [f ()], net of the measurement itself. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  int_of_float (w1 -. w0)

let test_rng_alloc_free () =
  let r = Sim.Rng.create ~seed:5 in
  let acc = ref 0 in
  let words =
    minor_words_of (fun () ->
        for _ = 1 to 10_000 do
          acc := !acc + Sim.Rng.int r 1000;
          if Sim.Rng.bool r 0.5 then incr acc
        done)
  in
  ignore (Sys.opaque_identity !acc);
  if words > 8 then Alcotest.failf "rng int/bool: %d minor words for 20k draws" words

(* Random interleavings of push and pop against a sorted-list model: every
   pop returns the model's least [(time, seq)], so equal times come out in
   push (FIFO) order. An op is [Some time] to push, [None] to pop. *)
let qcheck_heap_model =
  QCheck.Test.make ~name:"heap matches a sorted-list model" ~count:300
    QCheck.(list (option (int_bound 20)))
    (fun ops ->
      let h = Sim.Heap.create ~dummy:(-1) in
      let model = ref [] and seq = ref 0 and ok = ref true in
      let pop_both () =
        match (Sim.Heap.pop_min h, !model) with
        | None, [] -> ()
        | Some (time, s, v), (mt, ms) :: rest ->
            if time <> mt || s <> ms || v <> ms then ok := false;
            model := rest
        | _ -> ok := false
      in
      List.iter
        (function
          | Some time ->
              incr seq;
              Sim.Heap.push h ~time ~seq:!seq !seq;
              model := List.merge compare !model [ (time, !seq) ]
          | None -> pop_both ())
        ops;
      while !model <> [] || not (Sim.Heap.is_empty h) do
        pop_both ()
      done;
      !ok && Sim.Heap.length h = 0)

(* A drained heap keeps no popped payload reachable: vacated slots are
   cleared, so the payloads can be collected. *)
let test_heap_releases_payloads () =
  let h = Sim.Heap.create ~dummy:(Bytes.empty) in
  let weak = Weak.create 8 in
  let fill () =
    for i = 0 to 7 do
      let b = Bytes.make 16 'x' in
      Weak.set weak i (Some b);
      Sim.Heap.push h ~time:(8 - i) ~seq:i b
    done
  in
  fill ();
  while Sim.Heap.pop_into h (fun _ _ -> ()) do
    ()
  done;
  Gc.full_major ();
  for i = 0 to 7 do
    if Weak.check weak i then
      Alcotest.failf "payload %d still reachable after the drain" i
  done;
  (* The heap itself must stay live across the collection. *)
  Alcotest.(check int) "drained" 0 (Sim.Heap.length (Sys.opaque_identity h))

(* The event loop's own cost: once both heaps have grown, scheduling and
   firing an event through a continuation built once allocates nothing,
   for a near event and for a far timer alike. *)
let test_engine_prealloc_alloc_free () =
  let e = Sim.Engine.create () in
  let fired = ref 0 and far_fired = ref 0 in
  let rec k () =
    incr fired;
    if !fired < 10_000 then Sim.Engine.schedule e ~after:3 k
  in
  let rec far_k () =
    incr far_fired;
    if !far_fired < 100 then
      Sim.Engine.schedule e ~after:(2 * Sim.Engine.horizon) far_k
  in
  (* Warm-up: grow the arrays of both heaps. *)
  for _ = 1 to 64 do
    Sim.Engine.schedule e ~after:1 ignore;
    Sim.Engine.schedule e ~after:Sim.Engine.horizon ignore
  done;
  Sim.Engine.run_all e;
  let words =
    minor_words_of (fun () ->
        Sim.Engine.schedule e ~after:1 k;
        Sim.Engine.schedule e ~after:Sim.Engine.horizon far_k;
        Sim.Engine.run_all e)
  in
  Alcotest.(check int) "events fired" 10_000 !fired;
  Alcotest.(check int) "far timers fired" 100 !far_fired;
  if words > 8 then
    Alcotest.failf "%d minor words for 10,100 events (%.4f per event)" words
      (float_of_int words /. 10_100.)

(* --- near/far event queue ------------------------------------------------- *)

let horizon = Sim.Engine.horizon

(* Delays on both sides of the horizon, with few enough distinct values
   that events land on the same instant from both heaps: an event due at
   [horizon] waits in the far heap when scheduled at time 0, and in the
   near heap when scheduled at time 7. *)
let delays =
  [| 0; 1; 7; horizon - 7; horizon - 1; horizon; horizon + 1; 2 * horizon;
     5 * horizon |]

(* Roots are scheduled up front; the n-th event to fire schedules the n-th
   list of [spawns]. Between [run ~until] stops, the fired events are
   exactly those due by [until], whichever heap holds the next one. At the
   end, every event fired once, at its time, in the order of a sort by
   [(time, seq)] — with [seq] the scheduling order, so ties fire FIFO. *)
let qcheck_engine_order =
  let delay_index = QCheck.Gen.int_bound (Array.length delays - 1) in
  let gen =
    QCheck.Gen.(
      triple
        (list_size (1 -- 20) delay_index)
        (list_size (0 -- 40) (list_size (0 -- 2) delay_index))
        (list_size (0 -- 5) (int_bound (6 * horizon))))
  in
  QCheck.Test.make ~name:"engine fires in (time, seq) order across near and far"
    ~count:300 (QCheck.make gen) (fun (roots, spawns, untils) ->
      let e = Sim.Engine.create () in
      let spawns = ref spawns and seq = ref 0 and ok = ref true in
      let scheduled = ref [] and fired = ref [] in
      let fired_seqs = Hashtbl.create 64 in
      let rec schedule i =
        incr seq;
        let key = (Sim.Engine.now e + delays.(i), !seq) in
        scheduled := key :: !scheduled;
        Sim.Engine.schedule e ~after:delays.(i) (fun () ->
            if Sim.Engine.now e <> fst key then ok := false;
            fired := key :: !fired;
            Hashtbl.replace fired_seqs (snd key) ();
            match !spawns with
            | [] -> ()
            | children :: rest ->
                spawns := rest;
                List.iter schedule children)
      in
      List.iter schedule roots;
      List.iter
        (fun until ->
          Sim.Engine.run e ~until;
          List.iter
            (fun (time, s) ->
              if Hashtbl.mem fired_seqs s <> (time <= until) then ok := false)
            !scheduled;
          let unfired = List.length !scheduled - List.length !fired in
          if Sim.Engine.now e <> until || Sim.Engine.pending e <> unfired then
            ok := false)
        (List.sort compare untils);
      Sim.Engine.run_all e;
      !ok
      && List.rev !fired = List.sort compare !scheduled
      && Sim.Engine.pending e = 0)

(* A far timer and a near event due at the same instant fire in scheduling
   order, and [pending] counts the events of both heaps. *)
let test_engine_near_far () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  Sim.Engine.schedule e ~after:horizon (note "far");
  Sim.Engine.schedule e ~after:(3 * horizon) (note "far 3h");
  Sim.Engine.schedule e ~after:7 (fun () ->
      note "near" ();
      (* Due with "far", scheduled after it: fires after it. *)
      Sim.Engine.schedule e ~after:(horizon - 7) (note "near tie"));
  Sim.Engine.schedule e ~after:(horizon - 1) (note "near h-1");
  Alcotest.(check int) "pending, near and far" 4 (Sim.Engine.pending e);
  Sim.Engine.run e ~until:(horizon / 2);
  Alcotest.(check int) "pending after one fired" 4 (Sim.Engine.pending e);
  Sim.Engine.run e ~until:horizon;
  Alcotest.(check (list string)) "order" [ "near"; "near h-1"; "far"; "near tie" ]
    (List.rev !log);
  Alcotest.(check int) "pending far" 1 (Sim.Engine.pending e);
  Sim.Engine.run_all e;
  Alcotest.(check int) "clock" (3 * horizon) (Sim.Engine.now e);
  Alcotest.(check int) "drained" 0 (Sim.Engine.pending e)

(* Far-heap payloads are released once they fire: the engine keeps no
   fired timer's closure, or what it captured, reachable. *)
let test_engine_releases_far_payloads () =
  let e = Sim.Engine.create () in
  let weak = Weak.create 8 in
  let schedule_all () =
    for i = 0 to 7 do
      let b = Bytes.make 16 'x' in
      Weak.set weak i (Some b);
      Sim.Engine.schedule e ~after:((i + 2) * horizon) (fun () ->
          ignore (Sys.opaque_identity b))
    done
  in
  schedule_all ();
  Sim.Engine.run_all e;
  Gc.full_major ();
  for i = 0 to 7 do
    if Weak.check weak i then
      Alcotest.failf "far timer %d still reachable after it fired" i
  done;
  Alcotest.(check int) "drained" 0 (Sim.Engine.pending (Sys.opaque_identity e))

(* The id ring under its two growth regimes: a window of occupied ids
   wider than the ring widens it, and an id that is never freed is parked
   once the ring is at its widest, so later ids keep reusing slots. *)
type ring_slot = { mutable busy : bool; mutable id : int }

let test_id_ring () =
  let ring =
    Sim.Id_ring.create
      ~make:(fun () -> { busy = false; id = 0 })
      ~occupied:(fun s -> s.busy)
      ~id_of:(fun s -> s.id)
  in
  let claim id =
    let s = Sim.Id_ring.claim ring () ~id in
    s.busy <- true;
    s.id <- id;
    s
  in
  let window = List.init 300 (fun i -> claim (i + 1)) in
  List.iteri
    (fun i s ->
      if not (Sim.Id_ring.mem ring ~id:(i + 1) && Sim.Id_ring.get ring ~id:(i + 1) == s)
      then Alcotest.failf "id %d lost while widening" (i + 1))
    window;
  List.iter (fun s -> s.busy <- false) window;
  let stuck = claim 1_000 in
  for id = 1_001 to 100_000 do
    (claim id).busy <- false
  done;
  Alcotest.(check bool) "stuck id still found" true
    (Sim.Id_ring.mem ring ~id:1_000 && Sim.Id_ring.get ring ~id:1_000 == stuck);
  Alcotest.(check bool) "freed id gone" false (Sim.Id_ring.mem ring ~id:99_999);
  stuck.busy <- false;
  Alcotest.(check bool) "freed stuck id gone" false (Sim.Id_ring.mem ring ~id:1_000)

let test_exponential_mean () =
  let r = Sim.Rng.create ~seed:11 in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Dist.exponential r ~mean:500.0
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 500.0) > 10.0 then
    Alcotest.failf "exponential mean %f too far from 500" mean

let test_zipf_bounds_and_skew () =
  let z = Sim.Dist.Zipf.create ~n:1000 ~s:0.99 in
  let r = Sim.Rng.create ~seed:5 in
  let counts = Array.make 1001 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Sim.Dist.Zipf.sample z r in
    if k < 1 || k > 1000 then Alcotest.fail "zipf out of range";
    counts.(k) <- counts.(k) + 1
  done;
  (* Rank 1 should be far more popular than rank 100. *)
  Alcotest.(check bool) "rank1 > 10x rank100" true
    (counts.(1) > 10 * max 1 counts.(100));
  (* Rank 1 frequency for s=0.99, n=1000 is ~13%. *)
  let f1 = float_of_int counts.(1) /. float_of_int n in
  if f1 < 0.08 || f1 > 0.20 then Alcotest.failf "rank-1 frequency %f off" f1

let test_zipf_single () =
  let z = Sim.Dist.Zipf.create ~n:1 ~s:0.99 in
  let r = Sim.Rng.create ~seed:1 in
  for _ = 1 to 100 do
    Alcotest.(check int) "n=1" 1 (Sim.Dist.Zipf.sample z r)
  done

let test_discrete_sampler () =
  let d = Sim.Dist.Discrete.create [| ("a", 1.0); ("b", 3.0) |] in
  let r = Sim.Rng.create ~seed:9 in
  let a = ref 0 and b = ref 0 in
  for _ = 1 to 40_000 do
    match Sim.Dist.Discrete.sample d r with
    | "a" -> incr a
    | "b" -> incr b
    | _ -> Alcotest.fail "unexpected value"
  done;
  let ratio = float_of_int !b /. float_of_int !a in
  if ratio < 2.6 || ratio > 3.4 then Alcotest.failf "ratio %f off 3.0" ratio

let qcheck_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun pairs ->
      let h = Sim.Heap.create ~dummy:() in
      List.iteri (fun i (t, _) -> Sim.Heap.push h ~time:t ~seq:i ()) pairs;
      let rec drain last =
        match Sim.Heap.pop_min h with
        | None -> true
        | Some (t, _, ()) -> t >= last && drain t
      in
      drain min_int)

let suite =
  [
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap fifo at equal time" `Quick test_heap_fifo_same_time;
    Alcotest.test_case "engine event order" `Quick test_engine_order;
    Alcotest.test_case "engine run until" `Quick test_engine_until;
    Alcotest.test_case "engine rejects past" `Quick test_engine_rejects_past;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng golden streams" `Quick test_rng_golden;
    Alcotest.test_case "rng int/bool allocate nothing" `Quick test_rng_alloc_free;
    Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
    Alcotest.test_case "zipf bounds and skew" `Quick test_zipf_bounds_and_skew;
    Alcotest.test_case "zipf n=1" `Quick test_zipf_single;
    Alcotest.test_case "discrete sampler" `Quick test_discrete_sampler;
    QCheck_alcotest.to_alcotest qcheck_heap_sorted;
    QCheck_alcotest.to_alcotest qcheck_heap_model;
    Alcotest.test_case "id ring widens and parks" `Quick test_id_ring;
    Alcotest.test_case "heap releases popped payloads" `Quick
      test_heap_releases_payloads;
    Alcotest.test_case "engine event through a preallocated continuation allocates nothing"
      `Quick test_engine_prealloc_alloc_free;
    QCheck_alcotest.to_alcotest qcheck_engine_order;
    Alcotest.test_case "engine near/far ties and pending" `Quick
      test_engine_near_far;
    Alcotest.test_case "engine releases fired far timers" `Quick
      test_engine_releases_far_payloads;
  ]

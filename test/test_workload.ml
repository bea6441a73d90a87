(* Tests for workload generators: the summary statistics the paper states
   must hold on our synthetic traces. *)

let rng () = Sim.Rng.create ~seed:0xfeed

let test_ycsb_shape () =
  let wl = Workload.Ycsb.make ~n_keys:1024 ~entries:2 ~entry_size:2048 () in
  let r = rng () in
  for _ = 1 to 100 do
    match wl.Workload.Spec.next r with
    | Workload.Spec.Get { keys = [ key ] } ->
        Alcotest.(check int) "30-byte key" 30 (String.length key)
    | _ -> Alcotest.fail "ycsb must generate single-key gets"
  done;
  Alcotest.(check (float 1.0)) "mean response" 4096.0
    wl.Workload.Spec.mean_response_bytes

let test_ycsb_multiget () =
  let wl =
    Workload.Ycsb.make ~n_keys:1024 ~multiget:2 ~entries:1 ~entry_size:2048 ()
  in
  match wl.Workload.Spec.next (rng ()) with
  | Workload.Spec.Get { keys } -> Alcotest.(check int) "two keys" 2 (List.length keys)
  | _ -> Alcotest.fail "expected get"

let test_ycsb_populate_and_serve () =
  let space = Mem.Addr_space.create () in
  let wl = Workload.Ycsb.make ~n_keys:256 ~entries:2 ~entry_size:128 () in
  let pool =
    Mem.Pinned.Pool.create space ~name:"wl"
      ~classes:wl.Workload.Spec.pool_classes
  in
  let store = Kvstore.Store.create space ~name:"wl" ~capacity:256 in
  wl.Workload.Spec.populate store ~pool;
  Alcotest.(check int) "populated" 256 (Kvstore.Store.size store);
  (* Every generated key resolves. *)
  let r = rng () in
  for _ = 1 to 200 do
    match wl.Workload.Spec.next r with
    | Workload.Spec.Get { keys } ->
        List.iter
          (fun key ->
            match Kvstore.Store.get store ~key with
            | Some v -> Alcotest.(check int) "value shape" 256 (Kvstore.Store.value_len v)
            | None -> Alcotest.failf "missing key %s" key)
          keys
    | _ -> Alcotest.fail "expected get"
  done

let test_google_size_distribution () =
  let dist = Sim.Dist.Discrete.create Workload.Google.size_points in
  let r = rng () in
  let n = 100_000 in
  let le8 = ref 0 and le512 = ref 0 in
  for _ = 1 to n do
    let s = Sim.Dist.Discrete.sample dist r in
    if s <= 8 then incr le8;
    if s <= 512 then incr le512
  done;
  let f8 = float_of_int !le8 /. float_of_int n in
  let f512 = float_of_int !le512 /. float_of_int n in
  (* Paper: 34% of field sizes <= 8 B, 94.9% <= 512 B. *)
  if f8 < 0.30 || f8 > 0.38 then Alcotest.failf "P(<=8) = %.3f" f8;
  if f512 < 0.92 || f512 > 0.97 then Alcotest.failf "P(<=512) = %.3f" f512

let test_google_respects_mtu () =
  let space = Mem.Addr_space.create () in
  let wl = Workload.Google.make ~n_keys:512 ~max_vals:16 () in
  let pool =
    Mem.Pinned.Pool.create space ~name:"g" ~classes:wl.Workload.Spec.pool_classes
  in
  let store = Kvstore.Store.create space ~name:"g" ~capacity:512 in
  wl.Workload.Spec.populate store ~pool;
  let r = rng () in
  for _ = 1 to 300 do
    match wl.Workload.Spec.next r with
    | Workload.Spec.Get { keys = [ key ] } -> (
        match Kvstore.Store.get store ~key with
        | Some v ->
            let len = Kvstore.Store.value_len v in
            let n = List.length (Kvstore.Store.buffers v) in
            if len > 8192 then Alcotest.failf "object %d bytes > MTU" len;
            if n < 1 || n > 16 then Alcotest.failf "list length %d" n
        | None -> Alcotest.fail "missing key")
    | _ -> Alcotest.fail "expected get"
  done

let test_twitter_statistics () =
  let r = rng () in
  let n = 200_000 in
  let ge512 = ref 0 in
  for _ = 1 to n do
    if Workload.Twitter.sample_size r >= 512 then incr ge512
  done;
  let f = float_of_int !ge512 /. float_of_int n in
  (* Paper: about 32% of requests touch objects >= 512 B. *)
  if f < 0.28 || f > 0.36 then Alcotest.failf "P(>=512) = %.3f" f;
  (* Put fraction. *)
  let wl = Workload.Twitter.make ~n_keys:1024 () in
  let puts = ref 0 in
  let m = 50_000 in
  for _ = 1 to m do
    match wl.Workload.Spec.next r with
    | Workload.Spec.Put _ -> incr puts
    | _ -> ()
  done;
  let fp = float_of_int !puts /. float_of_int m in
  if fp < 0.07 || fp > 0.09 then Alcotest.failf "put fraction %.3f" fp

let test_cdn_object_shapes () =
  (* Mean object size ~ 20 KB, min >= 1000, segments consistent. *)
  let r = rng () in
  let n = 50_000 in
  let total = ref 0 in
  for _ = 1 to n do
    let s = Workload.Cdn.sample_object_size r in
    if s < 1000 then Alcotest.failf "object %d < 1000" s;
    if s > Workload.Cdn.max_object_bytes then Alcotest.fail "object too large";
    total := !total + s
  done;
  let mean = float_of_int !total /. float_of_int n in
  if mean < 12_000.0 || mean > 30_000.0 then Alcotest.failf "mean size %.0f" mean;
  for rank = 1 to 100 do
    let segs = Workload.Cdn.segments_of ~rank in
    Alcotest.(check bool) "at least one segment" true (segs >= 1)
  done

let test_cdn_sequential_walk () =
  let wl = Workload.Cdn.make ~n_objects:64 () in
  let r = rng () in
  (* Draw ops; whenever we see an object with k segments, the following
     k-1 ops must continue it in order. *)
  let rec check remaining last =
    if remaining > 0 then begin
      match wl.Workload.Spec.next r with
      | Workload.Spec.Get_index { key; index } ->
          (match last with
          | Some (lkey, lidx) when lidx >= 0 ->
              Alcotest.(check string) "same object" lkey key;
              Alcotest.(check int) "next segment" (lidx + 1) index
          | _ -> Alcotest.(check int) "walk starts at zero" 0 index);
          let rank =
            (* recover rank from deterministic key format *)
            int_of_string (String.sub key (String.length "cdn-image-object-") 43)
          in
          let n = Workload.Cdn.segments_of ~rank in
          if index + 1 < n then check (remaining - 1) (Some (key, index))
          else check (remaining - 1) None
      | _ -> Alcotest.fail "expected get_index"
    end
  in
  check 300 None

let suite =
  [
    Alcotest.test_case "ycsb shape" `Quick test_ycsb_shape;
    Alcotest.test_case "ycsb multiget" `Quick test_ycsb_multiget;
    Alcotest.test_case "ycsb populate/serve" `Quick test_ycsb_populate_and_serve;
    Alcotest.test_case "google size distribution" `Slow test_google_size_distribution;
    Alcotest.test_case "google respects mtu" `Quick test_google_respects_mtu;
    Alcotest.test_case "twitter statistics" `Slow test_twitter_statistics;
    Alcotest.test_case "cdn object shapes" `Slow test_cdn_object_shapes;
    Alcotest.test_case "cdn sequential walk" `Quick test_cdn_sequential_walk;
  ]

let test_trace_record_replay () =
  let wl = Workload.Twitter.make ~n_keys:512 () in
  let path = Filename.temp_file "cornflakes" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workload.Trace.record wl ~seed:7 ~n:200 path;
      let ops = Workload.Trace.load path in
      Alcotest.(check int) "200 ops" 200 (List.length ops);
      (* The recorded stream equals a fresh draw with the same seed. *)
      let rng = Sim.Rng.create ~seed:7 in
      List.iter
        (fun op ->
          let want = Workload.Trace.op_to_line (wl.Workload.Spec.next rng) in
          Alcotest.(check string) "deterministic" want
            (Workload.Trace.op_to_line op))
        ops;
      (* Replay loops and is rng-independent. *)
      let replayed = Workload.Trace.replayed ~base:wl path in
      let r1 = Sim.Rng.create ~seed:1 in
      let first = replayed.Workload.Spec.next r1 in
      Alcotest.(check string) "replay order" 
        (Workload.Trace.op_to_line (List.hd ops))
        (Workload.Trace.op_to_line first);
      for _ = 1 to 199 do
        ignore (replayed.Workload.Spec.next r1)
      done;
      let wrapped = replayed.Workload.Spec.next r1 in
      Alcotest.(check string) "loops at end"
        (Workload.Trace.op_to_line (List.hd ops))
        (Workload.Trace.op_to_line wrapped))

let test_trace_line_roundtrip () =
  List.iter
    (fun op ->
      let line = Workload.Trace.op_to_line op in
      Alcotest.(check string) line line
        (Workload.Trace.op_to_line (Workload.Trace.op_of_line line)))
    [
      Workload.Spec.Get { keys = [ "a" ] };
      Workload.Spec.Get { keys = [ "a"; "b"; "c" ] };
      Workload.Spec.Get_index { key = "vec"; index = 3 };
      Workload.Spec.Put { key = "k"; sizes = [ 64 ] };
      Workload.Spec.Put { key = "k"; sizes = [ 64; 128; 4096 ] };
    ]

let suite = suite @ [
  Alcotest.test_case "trace record/replay" `Quick test_trace_record_replay;
  Alcotest.test_case "trace line roundtrip" `Quick test_trace_line_roundtrip;
]

(* [padded_key] against [Printf] over every key shape the workloads use:
   random ranks in [0, 10^width - 1], plus the boundaries (0, each power
   of ten, 10^width - 1 and past it, [max_int], negatives). *)
let key_shapes =
  [ ("tw:", 16); ("cl:", 16); ("user", 26); ("google-object-key-", 45);
    ("cdn-image-object-", 43); ("k", 1); ("", 3) ]

let rec pow10 n = if n = 0 then 1 else 10 * pow10 (n - 1)

(* Largest rank with at most [width] digits that fits an int. *)
let max_rank width = if width >= 18 then max_int else pow10 width - 1

let same_as_printf prefix width rank =
  String.equal
    (Workload.Spec.padded_key ~prefix ~width rank)
    (Printf.sprintf "%s%0*d" prefix width rank)

let qcheck_padded_key_matches_printf =
  QCheck.Test.make ~name:"padded_key = Printf %s%0*d" ~count:2000
    QCheck.(pair (int_bound (List.length key_shapes - 1)) (int_bound max_int))
    (fun (shape, r) ->
      let prefix, width = List.nth key_shapes shape in
      let hi = max_rank width in
      same_as_printf prefix width (if hi = max_int then r else r mod (hi + 1)))

let test_padded_key_boundaries () =
  List.iter
    (fun (prefix, width) ->
      let powers = List.init 19 (fun k -> pow10 k) in
      List.iter
        (fun rank ->
          Alcotest.(check bool)
            (Printf.sprintf "%S width %d rank %d" prefix width rank)
            true
            (same_as_printf prefix width rank))
        ([ 0; 1; 9; max_rank width; max_int; -1; -42; min_int ]
        @ powers
        @ List.map (fun p -> p - 1) powers))
    key_shapes

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest qcheck_padded_key_matches_printf;
      Alcotest.test_case "padded_key boundaries" `Quick
        test_padded_key_boundaries;
    ]

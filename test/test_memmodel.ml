(* Tests for the cache simulator and cost meter. *)

let params = Memmodel.Params.default

let small_geometry =
  { Memmodel.Params.size_bytes = 1024; ways = 2; line_bytes = 64 }

let test_hit_after_access () =
  let c = Memmodel.Cache.create small_geometry in
  Alcotest.(check bool) "cold miss" false (Memmodel.Cache.access c ~line:5);
  Alcotest.(check bool) "warm hit" true (Memmodel.Cache.access c ~line:5)

let test_lru_eviction () =
  (* 1024 B / 64 B = 16 lines, 2 ways -> 8 sets. Lines 0, 8, 16 map to set 0. *)
  let c = Memmodel.Cache.create small_geometry in
  ignore (Memmodel.Cache.access c ~line:0);
  ignore (Memmodel.Cache.access c ~line:8);
  (* Re-touch 0 so 8 becomes LRU. *)
  ignore (Memmodel.Cache.access c ~line:0);
  ignore (Memmodel.Cache.access c ~line:16);
  Alcotest.(check bool) "0 survives" true (Memmodel.Cache.probe c ~line:0);
  Alcotest.(check bool) "8 evicted" false (Memmodel.Cache.probe c ~line:8);
  Alcotest.(check bool) "16 resident" true (Memmodel.Cache.probe c ~line:16)

let test_probe_no_side_effect () =
  let c = Memmodel.Cache.create small_geometry in
  Alcotest.(check bool) "probe misses" false (Memmodel.Cache.probe c ~line:3);
  Alcotest.(check bool) "still cold" false (Memmodel.Cache.access c ~line:3)

let test_hierarchy_levels () =
  let cpu = Memmodel.Cpu.create params in
  (* First latency access: DRAM cost. Second: L1 cost. *)
  let before = Memmodel.Cpu.cycles cpu in
  Memmodel.Cpu.latency_access cpu Memmodel.Cpu.Other ~addr:4096;
  let cold = Memmodel.Cpu.cycles cpu -. before in
  Alcotest.(check (float 0.001)) "cold = dram" params.Memmodel.Params.lat_dram cold;
  let before = Memmodel.Cpu.cycles cpu in
  Memmodel.Cpu.latency_access cpu Memmodel.Cpu.Other ~addr:4096;
  let warm = Memmodel.Cpu.cycles cpu -. before in
  Alcotest.(check (float 0.001)) "warm = l1" params.Memmodel.Params.lat_l1 warm

let test_stream_cost_per_line () =
  let cpu = Memmodel.Cpu.create params in
  let before = Memmodel.Cpu.cycles cpu in
  (* 256 bytes = 4 lines, all cold. *)
  Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:(1 lsl 22) ~len:256;
  let cost = Memmodel.Cpu.cycles cpu -. before in
  Alcotest.(check (float 0.001)) "4 dram lines"
    (4.0 *. params.Memmodel.Params.stream_dram)
    cost;
  let before = Memmodel.Cpu.cycles cpu in
  Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:(1 lsl 22) ~len:256;
  let warm = Memmodel.Cpu.cycles cpu -. before in
  Alcotest.(check (float 0.001)) "4 l1 lines"
    (4.0 *. params.Memmodel.Params.stream_l1)
    warm

let test_stream_straddles_lines () =
  let cpu = Memmodel.Cpu.create params in
  let before = Memmodel.Cpu.cycles cpu in
  (* 2 bytes starting at the last byte of a line touch two lines. *)
  Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:((1 lsl 23) + 63) ~len:2;
  let cost = Memmodel.Cpu.cycles cpu -. before in
  Alcotest.(check (float 0.001)) "2 dram lines"
    (2.0 *. params.Memmodel.Params.stream_dram)
    cost

let test_install_dma_lands_in_l3 () =
  let cpu = Memmodel.Cpu.create params in
  Memmodel.Cpu.install_dma cpu ~addr:(1 lsl 24) ~len:64;
  let before = Memmodel.Cpu.cycles cpu in
  Memmodel.Cpu.latency_access cpu Memmodel.Cpu.Other ~addr:(1 lsl 24);
  let cost = Memmodel.Cpu.cycles cpu -. before in
  Alcotest.(check (float 0.001)) "ddio -> l3 hit"
    params.Memmodel.Params.lat_l3 cost

let test_breakdown_categories () =
  let cpu = Memmodel.Cpu.create params in
  Memmodel.Cpu.charge cpu Memmodel.Cpu.Deser 10.0;
  Memmodel.Cpu.charge cpu Memmodel.Cpu.Copy 20.0;
  Memmodel.Cpu.charge cpu Memmodel.Cpu.Copy 5.0;
  let get cat = List.assoc cat (Memmodel.Cpu.breakdown cpu) in
  Alcotest.(check (float 0.001)) "deser" 10.0 (get Memmodel.Cpu.Deser);
  Alcotest.(check (float 0.001)) "copy" 25.0 (get Memmodel.Cpu.Copy);
  Alcotest.(check (float 0.001)) "total" 35.0 (Memmodel.Cpu.cycles cpu);
  Memmodel.Cpu.reset_breakdown cpu;
  Alcotest.(check (float 0.001)) "reset" 0.0 (get Memmodel.Cpu.Copy);
  (* Total cycle counter is monotonic across breakdown resets. *)
  Alcotest.(check (float 0.001)) "cycles kept" 35.0 (Memmodel.Cpu.cycles cpu)

let test_shared_l3 () =
  let l3 = Memmodel.Cache.create params.Memmodel.Params.l3 in
  let a = Memmodel.Cpu.create ~shared_l3:l3 params in
  let b = Memmodel.Cpu.create ~shared_l3:l3 params in
  (* Core A faults a line in; core B should then hit in the shared L3. *)
  Memmodel.Cpu.latency_access a Memmodel.Cpu.Other ~addr:(1 lsl 25);
  let before = Memmodel.Cpu.cycles b in
  Memmodel.Cpu.latency_access b Memmodel.Cpu.Other ~addr:(1 lsl 25);
  let cost = Memmodel.Cpu.cycles b -. before in
  Alcotest.(check (float 0.001)) "b hits shared l3"
    params.Memmodel.Params.lat_l3 cost

let test_cycles_to_ns () =
  Alcotest.(check (float 0.001)) "3GHz" 100.0
    (Memmodel.Params.cycles_to_ns params 300.0);
  Alcotest.(check (float 0.001)) "roundtrip" 300.0
    (Memmodel.Params.ns_to_cycles params 100.0)

let qcheck_cache_never_grows =
  (* Property: after any access sequence, a set holds at most [ways]
     distinct resident lines that map to it. *)
  QCheck.Test.make ~name:"cache set occupancy bounded" ~count:100
    QCheck.(list (int_bound 1000))
    (fun lines ->
      let c = Memmodel.Cache.create small_geometry in
      List.iter (fun l -> ignore (Memmodel.Cache.access c ~line:l)) lines;
      (* 8 sets, 2 ways: of lines 0..1000 mapping to set 0, at most 2 are
         resident. *)
      let resident =
        List.length
          (List.filter
             (fun l -> Memmodel.Cache.probe c ~line:l)
             (List.init 126 (fun i -> i * 8)))
      in
      resident <= 2)

let words_over n f =
  for _ = 1 to 100 do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. w0

(* --- the recency-ordered sets against a reference LRU --------------------- *)

module Cache = Memmodel.Cache

(* The reference model: per set, the resident lines as a list, most
   recent first. *)
let reference_access sets ~ways ~line =
  let s = (line land max_int) mod Array.length sets in
  let hit = List.mem line sets.(s) in
  let rest = List.filter (fun l -> l <> line) sets.(s) in
  sets.(s) <- List.filteri (fun i _ -> i < ways) (line :: rest);
  hit

let reference_probe sets ~line =
  List.mem line sets.((line land max_int) mod Array.length sets)

(* (ways, sets, ops): an op is a probe or an access of a line, drawn from
   about three times the cache's capacity, half of them above 2^40. *)
let gen_cache_case =
  QCheck.Gen.(
    let* ways = int_range 1 16 in
    let* sets =
      oneof [ map (fun k -> 1 lsl k) (int_range 0 6); int_range 1 70 ]
    in
    let span = 3 * sets * ways in
    let* ops =
      list_size (int_range 0 600)
        (pair (int_bound 3)
           (map2
              (fun high l -> if high then (1 lsl 40) + l else l)
              bool (int_bound span)))
    in
    return (ways, sets, List.map (fun (k, line) -> (k = 0, line)) ops))

let print_cache_case (ways, sets, ops) =
  Printf.sprintf "%d ways x %d sets, %d ops: %s" ways sets (List.length ops)
    (String.concat " "
       (List.map
          (fun (probe, l) -> (if probe then "p" else "a") ^ string_of_int l)
          ops))

(* Every access and probe answers as the reference does, and a second
   cache that sees only the accesses answers them identically: a probe
   changes no later result. *)
let qcheck_cache_matches_reference =
  QCheck.Test.make ~name:"cache = reference LRU; probe has no effect"
    ~count:300
    (QCheck.make ~print:print_cache_case gen_cache_case)
    (fun (ways, sets, ops) ->
      let g = { Memmodel.Params.size_bytes = sets * ways * 64; ways; line_bytes = 64 } in
      let probed = Cache.create g and unprobed = Cache.create g in
      let model = Array.make sets [] in
      List.for_all
        (fun (probe, line) ->
          if probe then Cache.probe probed ~line = reference_probe model ~line
          else
            let expected = reference_access model ~ways ~line in
            Cache.access probed ~line = expected
            && Cache.access unprobed ~line = expected)
        ops)

let test_cache_allocates_nothing () =
  let c = Cache.create params.Memmodel.Params.l3 in
  let line = ref 0 in
  let words =
    words_over 10_000 (fun () ->
        line := !line + 4099;
        ignore (Cache.access c ~line:!line))
  in
  if words > 8.0 then
    Alcotest.failf "Cache.access: %.0f minor words over 10^4 calls" words;
  let cpu = Memmodel.Cpu.create params in
  let addr = ref 0 in
  let words =
    words_over 10_000 (fun () ->
        addr := (!addr + 2048) land ((1 lsl 28) - 1);
        Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:!addr ~len:2048)
  in
  if words > 8.0 then
    Alcotest.failf "Cpu.stream: %.0f minor words over 10^4 calls" words

let test_geometry_checked () =
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted" name
  in
  let g = small_geometry in
  raises "no ways" (fun () -> Cache.create { g with ways = 0 });
  raises "no line" (fun () -> Cache.create { g with line_bytes = 0 });
  (* Lines are found by shifting the address, so the size is a power of
     two. *)
  raises "line not a power of two" (fun () ->
      Cache.create { g with line_bytes = 48 });
  raises "smaller than one set" (fun () ->
      Cache.create { g with size_bytes = (g.ways * g.line_bytes) - 1 });
  let wide = { params.Memmodel.Params.l2 with line_bytes = 128 } in
  raises "l2 line differs" (fun () ->
      Cache.Hierarchy.create { params with l2 = wide });
  raises "l3 line differs" (fun () ->
      Cache.Hierarchy.create
        { params with l3 = { params.Memmodel.Params.l3 with line_bytes = 128 } });
  raises "shared l3 line differs" (fun () ->
      Cache.Hierarchy.create_shared params
        ~l3:(Cache.create { small_geometry with line_bytes = 128; size_bytes = 4096 }));
  (* The smallest geometries in use stay valid: one set of one way (the
     unmetered meter's levels) and one full set. *)
  let one = { Memmodel.Params.size_bytes = 64; ways = 1; line_bytes = 64 } in
  Alcotest.(check bool) "one line" false (Cache.access (Cache.create one) ~line:9);
  Alcotest.(check bool) "one set" false
    (Cache.access (Cache.create { g with size_bytes = 128 }) ~line:9);
  ignore (Cache.Hierarchy.create { params with l1 = one; l2 = one; l3 = one })

(* --- the unmetered meter ------------------------------------------------- *)

module Cpu = Memmodel.Cpu

let all_ops =
  let p = params in
  Memmodel.Params.
    [
      (Cpu.Per_call, p.cost_per_call);
      (Cpu.Arena_alloc, p.cost_arena_alloc);
      (Cpu.Slab_alloc, p.cost_slab_alloc);
      (Cpu.Hash_op, p.cost_hash_op);
      (Cpu.Refcount_op, p.cost_refcount_op);
      (Cpu.Range_lookup, p.cost_range_lookup);
      (Cpu.Rx_packet, p.cost_rx_packet);
      (Cpu.Completion_per_sge, p.cost_completion_per_sge);
      (Cpu.Vec_alloc, p.cost_vec_alloc);
    ]

let ops = Array.of_list (List.map fst all_ops)

(* One of every kind of charge, cache operation and reset. *)
let touch_all cpu =
  Cpu.charge cpu Cpu.App 17.0;
  for i = 0 to Array.length ops - 1 do
    Cpu.charge_op cpu Cpu.Safety ops.(i)
  done;
  Cpu.charge_ops cpu Cpu.Tx Cpu.Completion_per_sge 3;
  Cpu.charge_post cpu ~nsge:4;
  Cpu.stream cpu Cpu.Copy ~addr:(1 lsl 22) ~len:4096;
  Cpu.latency_access cpu Cpu.Rx ~addr:(1 lsl 23);
  Cpu.install_dma cpu ~addr:(1 lsl 24) ~len:1024;
  Cpu.reset_breakdown cpu

let test_none_stays_zero () =
  Alcotest.(check bool) "unmetered" false (Cpu.metered Cpu.none);
  touch_all Cpu.none;
  Alcotest.(check (float 0.)) "cycles" 0.0 (Cpu.cycles Cpu.none);
  List.iter
    (fun (cat, c) ->
      Alcotest.(check (float 0.)) (Cpu.category_label cat) 0.0 c)
    (Cpu.breakdown Cpu.none);
  (* A metered meter does move under the same calls. *)
  let cpu = Cpu.create params in
  touch_all cpu;
  Alcotest.(check bool) "metered moves" true (Cpu.cycles cpu > 0.0)

(* 10^4 rounds of every call: nothing but the [Gc.minor_words] readings
   themselves may allocate. The metered meter's charges are unboxed too. *)
let test_charges_allocate_nothing () =
  List.iter
    (fun (name, cpu) ->
      let words = words_over 10_000 (fun () -> touch_all cpu) in
      if words > 8.0 then
        Alcotest.failf "%s: %.0f minor words over 10^4 rounds" name words)
    [ ("none", Cpu.none); ("metered", Cpu.create params) ]

(* An op charge adds exactly the float a [charge] of its [Params] field
   adds, bit for bit; [charge_ops] and [charge_post] likewise match the
   arithmetic they replaced ([charge_post]'s doorbell was once shared by a
   batch; every post now pays it whole, as a batch of one did). *)
let test_op_charges_match_params () =
  let bits f = Int64.bits_of_float f in
  let after f =
    let cpu = Cpu.create params in
    Cpu.charge cpu Cpu.Other 0.1;
    f cpu;
    bits (Cpu.cycles cpu)
  in
  List.iter
    (fun (op, cost) ->
      Alcotest.(check int64) "charge_op"
        (after (fun cpu -> Cpu.charge cpu Cpu.App cost))
        (after (fun cpu -> Cpu.charge_op cpu Cpu.App op));
      Alcotest.(check int64) "charge_ops"
        (after (fun cpu -> Cpu.charge cpu Cpu.App (float_of_int 7 *. cost)))
        (after (fun cpu -> Cpu.charge_ops cpu Cpu.App op 7)))
    all_ops;
  let p = params in
  Alcotest.(check int64) "charge_post"
    (after (fun cpu ->
         Cpu.charge cpu Cpu.Tx
           ((float_of_int 3 *. p.Memmodel.Params.cost_sg_post)
           +. (p.Memmodel.Params.cost_doorbell /. float_of_int 1)
           +. p.Memmodel.Params.cost_tx_packet)))
    (after (fun cpu -> Cpu.charge_post cpu ~nsge:3))

let suite =
  [
    Alcotest.test_case "hit after access" `Quick test_hit_after_access;
    Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
    Alcotest.test_case "probe has no side effect" `Quick test_probe_no_side_effect;
    Alcotest.test_case "hierarchy level costs" `Quick test_hierarchy_levels;
    Alcotest.test_case "stream cost per line" `Quick test_stream_cost_per_line;
    Alcotest.test_case "stream straddles lines" `Quick test_stream_straddles_lines;
    Alcotest.test_case "ddio install" `Quick test_install_dma_lands_in_l3;
    Alcotest.test_case "breakdown categories" `Quick test_breakdown_categories;
    Alcotest.test_case "shared l3" `Quick test_shared_l3;
    Alcotest.test_case "cycles to ns" `Quick test_cycles_to_ns;
    QCheck_alcotest.to_alcotest qcheck_cache_never_grows;
    QCheck_alcotest.to_alcotest qcheck_cache_matches_reference;
    Alcotest.test_case "cache and stream allocate nothing" `Quick
      test_cache_allocates_nothing;
    Alcotest.test_case "geometry and line sizes checked" `Quick
      test_geometry_checked;
    Alcotest.test_case "none stays at zero" `Quick test_none_stays_zero;
    Alcotest.test_case "charges allocate nothing" `Quick
      test_charges_allocate_nothing;
    Alcotest.test_case "op charges match params bits" `Quick
      test_op_charges_match_params;
  ]

(* Tests for the key-value store: value lifecycle, pointer-swap puts,
   ownership. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

let make () =
  let space = Mem.Addr_space.create () in
  let pool =
    Mem.Pinned.Pool.create space ~name:"kv"
      ~classes:[ (64, 64); (256, 64); (1024, 32) ]
  in
  let store = Kvstore.Store.create space ~name:"test" ~capacity:64 in
  (space, pool, store)

let remove store key =
  Kvstore.Store.remove ~cpu:none store (Bytes.of_string key) ~off:0
    ~len:(String.length key)

let value_of pool s =
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:(String.length s) in
  Mem.Pinned.Buf.fill ~cpu:none buf s;
  Kvstore.Store.Single buf

let test_put_get () =
  let _space, pool, store = make () in
  Kvstore.Store.put_string ~cpu:none store ~key:"a" (value_of pool "alpha");
  (match Kvstore.Store.get store ~key:"a" with
  | Some (Kvstore.Store.Single buf) ->
      Alcotest.(check string) "value" "alpha"
        (Mem.View.to_string (Mem.Pinned.Buf.view buf))
  | _ -> Alcotest.fail "expected single value");
  Alcotest.(check bool) "missing" true (Kvstore.Store.get store ~key:"b" = None);
  Alcotest.(check int) "size" 1 (Kvstore.Store.size store)

let test_put_swaps_and_releases () =
  let _space, pool, store = make () in
  let old_buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
  Kvstore.Store.put_string ~cpu:none store ~key:"k" (Kvstore.Store.Single old_buf);
  Alcotest.(check int) "store owns old" 1 (Mem.Pinned.Buf.refcount old_buf);
  Kvstore.Store.put_string ~cpu:none store ~key:"k" (value_of pool "new");
  (* The old value was released — stale handle. *)
  Alcotest.(check bool) "old released" false (Mem.Pinned.Buf.is_live old_buf);
  match Kvstore.Store.get store ~key:"k" with
  | Some (Kvstore.Store.Single buf) ->
      Alcotest.(check string) "new value" "new"
        (Mem.View.to_string (Mem.Pinned.Buf.view buf))
  | _ -> Alcotest.fail "expected value"

let test_put_does_not_free_referenced () =
  (* A reader (e.g. an in-flight zero-copy send) holds a reference; the put
     must not recycle the buffer under it — the use-after-free guarantee. *)
  let _space, pool, store = make () in
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
  Mem.Pinned.Buf.fill ~cpu:none buf "pinned-in-flight";
  Kvstore.Store.put_string ~cpu:none store ~key:"k" (Kvstore.Store.Single buf);
  Mem.Pinned.Buf.incr_ref ~cpu:none buf;
  (* reader's reference *)
  Kvstore.Store.put_string ~cpu:none store ~key:"k" (value_of pool "replacement");
  Alcotest.(check bool) "still live for reader" true (Mem.Pinned.Buf.is_live buf);
  Alcotest.(check string) "reader sees old bytes" "pinned-in-flight"
    (String.sub (Mem.View.to_string (Mem.Pinned.Buf.view buf)) 0 16);
  Mem.Pinned.Buf.decr_ref ~cpu:none buf;
  Alcotest.(check bool) "released after reader" false (Mem.Pinned.Buf.is_live buf)

let test_linked_and_vector_values () =
  let _space, pool, store = make () in
  let bufs =
    List.map
      (fun s ->
        let b = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:(String.length s) in
        Mem.Pinned.Buf.fill ~cpu:none b s;
        b)
      [ "one"; "two"; "three" ]
  in
  Kvstore.Store.put_string ~cpu:none store ~key:"list" (Kvstore.Store.Linked bufs);
  (match Kvstore.Store.get store ~key:"list" with
  | Some v ->
      Alcotest.(check int) "three buffers" 3
        (List.length (Kvstore.Store.buffers v));
      Alcotest.(check int) "total len" 11 (Kvstore.Store.value_len v)
  | None -> Alcotest.fail "missing");
  let arr =
    Array.init 4 (fun i ->
        let b = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:8 in
        Mem.Pinned.Buf.fill ~cpu:none b (Printf.sprintf "seg%05d" i);
        b)
  in
  Kvstore.Store.put_string ~cpu:none store ~key:"vec" (Kvstore.Store.Vector arr);
  match Kvstore.Store.get store ~key:"vec" with
  | Some (Kvstore.Store.Vector a) ->
      Alcotest.(check string) "index 2" "seg00002"
        (Mem.View.to_string (Mem.Pinned.Buf.view a.(2)))
  | _ -> Alcotest.fail "expected vector"

let test_remove () =
  let _space, pool, store = make () in
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
  Kvstore.Store.put_string ~cpu:none store ~key:"k" (Kvstore.Store.Single buf);
  remove store "k";
  Alcotest.(check bool) "gone" true (Kvstore.Store.get store ~key:"k" = None);
  Alcotest.(check bool) "buffer released" false (Mem.Pinned.Buf.is_live buf);
  Alcotest.(check int) "empty" 0 (Kvstore.Store.size store)

let test_get_charges_more_when_cold () =
  (* The store's metadata lives in simulated memory: a key miss after a
     large sweep costs more than a hot re-read. *)
  let space = Mem.Addr_space.create () in
  let pool =
    Mem.Pinned.Pool.create space ~name:"kv" ~classes:[ (64, 4096) ]
  in
  let store = Kvstore.Store.create space ~name:"cold" ~capacity:4096 in
  for i = 0 to 4095 do
    Kvstore.Store.put_string ~cpu:none store ~key:(Printf.sprintf "key%05d" i)
      (value_of pool "v")
  done;
  let cpu = Memmodel.Cpu.create Memmodel.Params.default in
  let cost key =
    let c0 = Memmodel.Cpu.cycles cpu in
    ignore (Kvstore.Store.get ~cpu store ~key);
    Memmodel.Cpu.cycles cpu -. c0
  in
  let cold = cost "key00000" in
  let warm = cost "key00000" in
  Alcotest.(check bool)
    (Printf.sprintf "cold %.0f > warm %.0f" cold warm)
    true (cold > warm)

let qcheck_store_model =
  (* The store behaves like a map: random put/get/remove sequences agree
     with a reference association list. *)
  QCheck.Test.make ~name:"store matches model map" ~count:100
    QCheck.(list (pair (int_bound 7) (int_bound 2)))
    (fun ops ->
      let _space, pool, store = make () in
      let model = Hashtbl.create 8 in
      List.for_all
        (fun (k, op) ->
          let key = Printf.sprintf "k%d" k in
          match op with
          | 0 ->
              let v = Printf.sprintf "v%d-%d" k (Hashtbl.hash ops) in
              Kvstore.Store.put_string ~cpu:none store ~key (value_of pool v);
              Hashtbl.replace model key v;
              true
          | 1 ->
              remove store key;
              Hashtbl.remove model key;
              true
          | _ -> (
              match (Kvstore.Store.get store ~key, Hashtbl.find_opt model key) with
              | Some (Kvstore.Store.Single buf), Some v ->
                  String.equal (Mem.View.to_string (Mem.Pinned.Buf.view buf)) v
              | None, None -> true
              | _ -> false))
        ops)

(* --- the open-addressing index ------------------------------------------ *)

(* The index hash is OCaml's generic string hash computed in place — the
   simulated bucket line depends on it. Windows of 0-80 bytes (any length
   mod 4, any byte value) at random offsets inside a larger buffer. *)
let qcheck_hash_matches_generic =
  QCheck.Test.make ~name:"store hash = Hashtbl.hash" ~count:1000
    QCheck.(triple small_string (string_of_size Gen.(0 -- 80)) small_string)
    (fun (before, key, after) ->
      let data = Bytes.of_string (before ^ key ^ after) in
      Kvstore.Store.hash data ~off:(String.length before)
        ~len:(String.length key)
      = Hashtbl.hash key)

module Smap = Map.Make (String)

(* Random put/get/remove sequences on a capacity-4 store (8 slots at
   first, so inserts grow it and removes land mid-chain) agree with a
   [Map]: size, every value, and every buffer's refcount — 1 while the
   store holds it, released once replaced or removed. Keys are probed
   as windows at an offset, as a receive buffer holds them. *)
let qcheck_index_model =
  QCheck.Test.make ~name:"store index matches Map (growth, mid-chain removes)"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 120) (pair (int_bound 23) (int_bound 3)))
    (fun ops ->
      let space = Mem.Addr_space.create () in
      let pool = Mem.Pinned.Pool.create space ~name:"kv" ~classes:[ (64, 256) ] in
      let store = Kvstore.Store.create space ~name:"model" ~capacity:4 in
      let window key =
        let data = Bytes.of_string ("<<" ^ key ^ ">>") in
        (data, 2, String.length key)
      in
      let released = ref [] in
      let n = ref 0 in
      let agrees model =
        Kvstore.Store.size store = Smap.cardinal model
        && List.for_all
             (fun k ->
               let key = Printf.sprintf "key-%d" k in
               let data, off, len = window key in
               let slot = Kvstore.Store.find ~cpu:none store data ~off ~len in
               match (Smap.find_opt key model, slot) with
               | None, -1 -> true
               | Some (v, buf), slot when slot >= 0 -> (
                   Mem.Pinned.Buf.refcount buf = 1
                   &&
                   match Kvstore.Store.value store slot with
                   | Kvstore.Store.Single b ->
                       b == buf
                       && String.equal v
                            (Mem.View.to_string (Mem.Pinned.Buf.view b))
                   | _ -> false)
               | _ -> false)
             (List.init 24 Fun.id)
        && List.for_all (fun b -> not (Mem.Pinned.Buf.is_live b)) !released
      in
      let step model (k, op) =
        let key = Printf.sprintf "key-%d" k in
        let data, off, len = window key in
        let model =
          match op with
          | 0 | 1 ->
              incr n;
              let v = Printf.sprintf "v%d" !n in
              let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:(String.length v) in
              Mem.Pinned.Buf.fill ~cpu:none buf v;
              Kvstore.Store.put ~cpu:none store data ~off ~len
                (Kvstore.Store.Single buf);
              (match Smap.find_opt key model with
              | Some (_, old) -> released := old :: !released
              | None -> ());
              Smap.add key (v, buf) model
          | 2 ->
              Kvstore.Store.remove ~cpu:none store data ~off ~len;
              (match Smap.find_opt key model with
              | Some (_, old) -> released := old :: !released
              | None -> ());
              Smap.remove key model
          | _ -> model
        in
        if agrees model then model
        else QCheck.Test.fail_reportf "store and model diverge after op on %s" key
      in
      ignore (List.fold_left step Smap.empty ops);
      true)

(* A hit allocates nothing, metered or not: over 10^4 lookups only the
   [Gc.minor_words] readings themselves may. *)
let test_find_hit_allocates_nothing () =
  let space = Mem.Addr_space.create () in
  let store = Kvstore.Store.create space ~name:"alloc" ~capacity:1024 in
  let klen = 19 in
  let keys = Bytes.create (1024 * klen) in
  for i = 0 to 1023 do
    let key = Printf.sprintf "tw:%016d" i in
    Bytes.blit_string key 0 keys (i * klen) klen;
    Kvstore.Store.put_string ~cpu:none store ~key (Kvstore.Store.Vector [||])
  done;
  List.iter
    (fun (name, cpu) ->
      let next = ref 0 and hits = ref 0 in
      let lookup () =
        next := (!next + 7) land 1023;
        if Kvstore.Store.find ~cpu store keys ~off:(!next * klen) ~len:klen >= 0
        then incr hits
      in
      for _ = 1 to 100 do
        lookup ()
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        lookup ()
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check int) (name ^ ": every lookup hits") 10_100 !hits;
      if words > 8.0 then
        Alcotest.failf "%s: %.0f minor words over 10^4 hits" name words)
    [ ("none", none); ("metered", Memmodel.Cpu.create Memmodel.Params.default) ]

let suite =
  [
    Alcotest.test_case "put get" `Quick test_put_get;
    Alcotest.test_case "put swaps and releases" `Quick test_put_swaps_and_releases;
    Alcotest.test_case "put honours readers" `Quick test_put_does_not_free_referenced;
    Alcotest.test_case "linked and vector values" `Quick test_linked_and_vector_values;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "cold get costs more" `Quick test_get_charges_more_when_cold;
    QCheck_alcotest.to_alcotest qcheck_store_model;
    QCheck_alcotest.to_alcotest qcheck_hash_matches_generic;
    QCheck_alcotest.to_alcotest qcheck_index_model;
    Alcotest.test_case "find on a hit allocates nothing" `Quick
      test_find_hit_allocates_nothing;
  ]

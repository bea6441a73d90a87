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

let value_of pool s =
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:(String.length s) in
  Mem.Pinned.Buf.fill ~cpu:none buf s;
  Kvstore.Store.Single buf

let test_put_get () =
  let _space, pool, store = make () in
  Kvstore.Store.put ~cpu:none store ~key:"a" (value_of pool "alpha");
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
  Kvstore.Store.put ~cpu:none store ~key:"k" (Kvstore.Store.Single old_buf);
  Alcotest.(check int) "store owns old" 1 (Mem.Pinned.Buf.refcount old_buf);
  Kvstore.Store.put ~cpu:none store ~key:"k" (value_of pool "new");
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
  Kvstore.Store.put ~cpu:none store ~key:"k" (Kvstore.Store.Single buf);
  Mem.Pinned.Buf.incr_ref ~cpu:none buf;
  (* reader's reference *)
  Kvstore.Store.put ~cpu:none store ~key:"k" (value_of pool "replacement");
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
  Kvstore.Store.put ~cpu:none store ~key:"list" (Kvstore.Store.Linked bufs);
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
  Kvstore.Store.put ~cpu:none store ~key:"vec" (Kvstore.Store.Vector arr);
  match Kvstore.Store.get store ~key:"vec" with
  | Some (Kvstore.Store.Vector a) ->
      Alcotest.(check string) "index 2" "seg00002"
        (Mem.View.to_string (Mem.Pinned.Buf.view a.(2)))
  | _ -> Alcotest.fail "expected vector"

let test_remove () =
  let _space, pool, store = make () in
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
  Kvstore.Store.put ~cpu:none store ~key:"k" (Kvstore.Store.Single buf);
  Kvstore.Store.remove ~cpu:none store ~key:"k";
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
    Kvstore.Store.put ~cpu:none store ~key:(Printf.sprintf "key%05d" i)
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
              Kvstore.Store.put ~cpu:none store ~key (value_of pool v);
              Hashtbl.replace model key v;
              true
          | 1 ->
              Kvstore.Store.remove ~cpu:none store ~key;
              Hashtbl.remove model key;
              true
          | _ -> (
              match (Kvstore.Store.get store ~key, Hashtbl.find_opt model key) with
              | Some (Kvstore.Store.Single buf), Some v ->
                  String.equal (Mem.View.to_string (Mem.Pinned.Buf.view buf)) v
              | None, None -> true
              | _ -> false))
        ops)

let suite =
  [
    Alcotest.test_case "put get" `Quick test_put_get;
    Alcotest.test_case "put swaps and releases" `Quick test_put_swaps_and_releases;
    Alcotest.test_case "put honours readers" `Quick test_put_does_not_free_referenced;
    Alcotest.test_case "linked and vector values" `Quick test_linked_and_vector_values;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "cold get costs more" `Quick test_get_charges_more_when_cold;
    QCheck_alcotest.to_alcotest qcheck_store_model;
  ]

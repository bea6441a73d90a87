(* Tests for the pinned-memory substrate: slab pools, refcounts,
   use-after-free detection, recover_ptr, arenas. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

let make_pool ?(classes = [ (64, 8); (256, 8); (1024, 4) ]) () =
  let space = Mem.Addr_space.create () in
  let pool = Mem.Pinned.Pool.create space ~name:"test" ~classes in
  (space, pool)

let test_alloc_and_fill () =
  let _space, pool = make_pool () in
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:100 in
  Alcotest.(check int) "len" 100 (Mem.Pinned.Buf.len buf);
  Alcotest.(check int) "slot size rounds up" 256 (Mem.Pinned.Buf.slot_size buf);
  Alcotest.(check int) "refcount" 1 (Mem.Pinned.Buf.refcount buf);
  Mem.Pinned.Buf.fill ~cpu:none buf "hello";
  let v = Mem.Pinned.Buf.view buf in
  Alcotest.(check string) "contents" "hello"
    (String.sub (Mem.View.to_string v) 0 5)

let test_alloc_exhaustion () =
  let _space, pool = make_pool ~classes:[ (64, 2) ] () in
  let a = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
  let _b = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
  (match Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 with
  | _ -> Alcotest.fail "expected Out_of_memory"
  | exception Mem.Pinned.Out_of_memory _ -> ());
  (* Freeing returns capacity. *)
  Mem.Pinned.Buf.decr_ref ~cpu:none a;
  let c = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
  Alcotest.(check int) "recycled" 1 (Mem.Pinned.Buf.refcount c)

let test_no_class_large_enough () =
  let _space, pool = make_pool () in
  match Mem.Pinned.Buf.alloc ~cpu:none pool ~len:4096 with
  | _ -> Alcotest.fail "expected Out_of_memory"
  | exception Mem.Pinned.Out_of_memory _ -> ()

let test_refcount_lifecycle () =
  let _space, pool = make_pool () in
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
  Mem.Pinned.Buf.incr_ref ~cpu:none buf;
  Alcotest.(check int) "two refs" 2 (Mem.Pinned.Buf.refcount buf);
  Mem.Pinned.Buf.decr_ref ~cpu:none buf;
  Alcotest.(check bool) "still live" true (Mem.Pinned.Buf.is_live buf);
  Mem.Pinned.Buf.decr_ref ~cpu:none buf;
  Alcotest.(check bool) "dead" false (Mem.Pinned.Buf.is_live buf)

(* The exception now carries a payload (buffer identity + RefSan history),
   so match on the constructor rather than a literal exception value. *)
let expect_uaf label f =
  match f () with
  | _ -> Alcotest.fail (label ^ ": expected Use_after_free")
  | exception Mem.Pinned.Use_after_free _ -> ()

let test_use_after_free_raises () =
  let _space, pool = make_pool () in
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
  Mem.Pinned.Buf.decr_ref ~cpu:none buf;
  expect_uaf "view after free" (fun () -> ignore (Mem.Pinned.Buf.view buf));
  expect_uaf "incr after free" (fun () -> Mem.Pinned.Buf.incr_ref ~cpu:none buf)

let test_stale_generation_detected () =
  let _space, pool = make_pool ~classes:[ (64, 1) ] () in
  let old = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
  Mem.Pinned.Buf.decr_ref ~cpu:none old;
  (* Same slot is recycled; the stale handle must not alias it. *)
  let fresh = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
  Alcotest.(check bool) "fresh live" true (Mem.Pinned.Buf.is_live fresh);
  expect_uaf "stale handle" (fun () -> ignore (Mem.Pinned.Buf.view old))

let test_sub_shares_refcount () =
  let _space, pool = make_pool () in
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:256 in
  Mem.Pinned.Buf.fill ~cpu:none buf (String.make 256 'x');
  let sub = Mem.Pinned.Buf.sub buf ~off:100 ~len:50 in
  Alcotest.(check int) "sub len" 50 (Mem.Pinned.Buf.len sub);
  Alcotest.(check int) "sub addr" (Mem.Pinned.Buf.addr buf + 100)
    (Mem.Pinned.Buf.addr sub);
  Alcotest.(check int) "shared count" 1 (Mem.Pinned.Buf.refcount sub);
  Mem.Pinned.Buf.decr_ref ~cpu:none sub;
  expect_uaf "parent dead too" (fun () -> ignore (Mem.Pinned.Buf.view buf))

let test_recover_ptr_middle () =
  let space, pool = make_pool () in
  let registry = Mem.Registry.create space in
  Mem.Registry.register registry pool;
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:256 in
  Mem.Pinned.Buf.fill ~cpu:none buf (String.init 256 (fun i -> Char.chr (i land 0xff)));
  let addr = Mem.Pinned.Buf.addr buf + 10 in
  (match Mem.Registry.recover_ptr ~cpu:none registry ~addr ~len:20 with
  | None -> Alcotest.fail "expected recovery"
  | Some r ->
      Alcotest.(check int) "recovered len" 20 (Mem.Pinned.Buf.len r);
      Alcotest.(check int) "refcount bumped" 2 (Mem.Pinned.Buf.refcount buf);
      let v = Mem.Pinned.Buf.view r in
      Alcotest.(check string) "contents align"
        (String.init 20 (fun i -> Char.chr ((i + 10) land 0xff)))
        (Mem.View.to_string v);
      Mem.Pinned.Buf.decr_ref ~cpu:none r);
  Alcotest.(check int) "ref restored" 1 (Mem.Pinned.Buf.refcount buf)

let test_recover_ptr_unpinned_fails () =
  let space, pool = make_pool () in
  let registry = Mem.Registry.create space in
  Mem.Registry.register registry pool;
  let heap = Mem.Unpinned.of_string space "not pinned" in
  Alcotest.(check bool) "unpinned rejected" true
    (Mem.Registry.recover_ptr ~cpu:none registry ~addr:(Mem.Unpinned.addr heap) ~len:5
    = None)

let test_recover_ptr_freed_slot_fails () =
  let space, pool = make_pool () in
  let registry = Mem.Registry.create space in
  Mem.Registry.register registry pool;
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
  let addr = Mem.Pinned.Buf.addr buf in
  Mem.Pinned.Buf.decr_ref ~cpu:none buf;
  Alcotest.(check bool) "freed slot not recoverable" true
    (Mem.Registry.recover_ptr ~cpu:none registry ~addr ~len:8 = None)

let test_recover_ptr_straddle_fails () =
  let space, pool = make_pool () in
  let registry = Mem.Registry.create space in
  Mem.Registry.register registry pool;
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
  (* A range that runs off the end of the slot cannot be recovered. *)
  Alcotest.(check bool) "straddle rejected" true
    (Mem.Registry.recover_ptr ~cpu:none registry
       ~addr:(Mem.Pinned.Buf.addr buf + 32)
       ~len:64
    = None)

let test_arena_copy_and_reset () =
  let space = Mem.Addr_space.create () in
  let arena = Mem.Arena.create space ~capacity:1024 in
  let src = Mem.View.of_string space "arena data" in
  let copy = Mem.Arena.copy_in ~cpu:none arena src in
  Alcotest.(check string) "copied" "arena data" (Mem.View.to_string copy);
  (* Allocations reserve their size class (10 B rounds up to the 16 B
     class) so the chunk can be recycled. *)
  Alcotest.(check int) "used" 16 (Mem.Arena.used arena);
  Mem.Arena.reset arena;
  Alcotest.(check int) "reset" 0 (Mem.Arena.used arena)

let test_arena_exhaustion () =
  let space = Mem.Addr_space.create () in
  let arena = Mem.Arena.create space ~capacity:16 in
  let src = Mem.View.of_string space (String.make 17 'x') in
  match Mem.Arena.copy_in ~cpu:none arena src with
  | _ -> Alcotest.fail "expected arena overflow"
  | exception Mem.Pinned.Out_of_memory _ -> ()

let test_view_sub_and_blit () =
  let space = Mem.Addr_space.create () in
  let v = Mem.View.of_string space "hello world" in
  let sub = Mem.View.sub v ~off:6 ~len:5 in
  Alcotest.(check string) "sub" "world" (Mem.View.to_string sub);
  Alcotest.(check int) "sub addr" (v.Mem.View.addr + 6) sub.Mem.View.addr;
  let dst = Bytes.make 5 '_' in
  Mem.View.blit sub ~dst ~dst_off:0;
  Alcotest.(check string) "blit" "world" (Bytes.to_string dst)

let test_addr_space_disjoint () =
  let space = Mem.Addr_space.create () in
  let a = Mem.Addr_space.reserve space ~bytes:100 in
  let b = Mem.Addr_space.reserve space ~bytes:100 in
  Alcotest.(check bool) "disjoint" true (b >= a + 100);
  Alcotest.(check int) "aligned" 0 (a mod 64);
  Alcotest.(check int) "aligned b" 0 (b mod 64)

let qcheck_alloc_free_capacity =
  (* Property: any interleaving of allocs and frees never loses capacity:
     after releasing everything, the pool serves its full class capacity. *)
  QCheck.Test.make ~name:"pool conserves capacity" ~count:100
    QCheck.(list (int_bound 9))
    (fun ops ->
      let _space, pool = make_pool ~classes:[ (64, 4) ] () in
      let live = ref [] in
      List.iter
        (fun op ->
          if op < 5 then begin
            match Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 with
            | buf -> live := buf :: !live
            | exception Mem.Pinned.Out_of_memory _ -> ()
          end
          else
            match !live with
            | [] -> ()
            | buf :: rest ->
                Mem.Pinned.Buf.decr_ref ~cpu:none buf;
                live := rest)
        ops;
      List.iter (Mem.Pinned.Buf.decr_ref ~cpu:none) !live;
      Mem.Pinned.Pool.live pool = 0
      && Mem.Pinned.Pool.available_for pool ~len:64 = 4)

let qcheck_recover_roundtrip =
  QCheck.Test.make ~name:"recover_ptr window matches" ~count:100
    QCheck.(pair (int_bound 200) (int_bound 55))
    (fun (off, len) ->
      let len = len + 1 in
      QCheck.assume (off + len <= 256);
      let space, pool = make_pool () in
      let registry = Mem.Registry.create space in
      Mem.Registry.register registry pool;
      let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:256 in
      Mem.Pinned.Buf.fill ~cpu:none buf
        (String.init 256 (fun i -> Char.chr (i land 0xff)));
      match
        Mem.Registry.recover_ptr ~cpu:none registry
          ~addr:(Mem.Pinned.Buf.addr buf + off)
          ~len
      with
      | None -> false
      | Some r ->
          let got = Mem.View.to_string (Mem.Pinned.Buf.view r) in
          let want = String.init len (fun i -> Char.chr ((i + off) land 0xff)) in
          String.equal got want)

let test_arena_recycle_reuses_and_counts () =
  let space = Mem.Addr_space.create () in
  let arena = Mem.Arena.create space ~capacity:1024 in
  let src = Mem.View.of_string space (String.make 100 'r') in
  let first = Mem.Arena.copy_in ~cpu:none arena src in
  Mem.Arena.recycle arena first;
  Alcotest.(check int) "parked after recycle" 1 (Mem.Arena.parked arena);
  let second = Mem.Arena.copy_in ~cpu:none arena src in
  (* Same class (128 B), so the recycled chunk is reused in place. *)
  Alcotest.(check int) "chunk reused" first.Mem.View.addr
    second.Mem.View.addr;
  Alcotest.(check int) "recycle hit counted" 1 (Mem.Arena.recycle_hits arena);
  Alcotest.(check int) "bump pointer did not advance" 128
    (Mem.Arena.used arena)

let qcheck_arena_recycle_never_live =
  (* Property: across any interleaving of allocs and recycles, an
     allocation never returns a chunk that is still live (handed out and
     not yet recycled), and the RefSan ledger — which tracks recycled
     chunks as free + alloc — raises no diagnostic for the interleaving. *)
  QCheck.Test.make ~name:"arena recycling never hands out a live chunk"
    ~count:50
    QCheck.(list (pair (int_range 1 300) bool))
    (fun ops ->
      let was = Sanitizer.Refsan.is_enabled () in
      Sanitizer.Refsan.reset ();
      Sanitizer.Refsan.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Sanitizer.Refsan.set_enabled was;
          Sanitizer.Refsan.reset ())
        (fun () ->
          let space = Mem.Addr_space.create () in
          let arena = Mem.Arena.create space ~capacity:(1 lsl 16) in
          let live = Hashtbl.create 16 in
          let ok = ref true in
          List.iter
            (fun (len, do_recycle) ->
              match Mem.Arena.alloc ~cpu:none ~site:"prop.alloc" arena ~len with
              | v ->
                  (* Free-list reuse hands back a previous chunk's exact
                     start address; a live one must never reappear. *)
                  if Hashtbl.mem live v.Mem.View.addr then ok := false;
                  if do_recycle then
                    Mem.Arena.recycle ~site:"prop.recycle" arena v
                  else Hashtbl.replace live v.Mem.View.addr ()
              | exception Mem.Pinned.Out_of_memory _ -> ())
            ops;
          !ok && Sanitizer.Refsan.diagnostics () = []))

(* Model of a pool whose slots span many 64 KB backing chunks: classes below
   (8 and 16 KB: eight and four slots a chunk; 32 KB: two), at (64 KB) and
   above (128 KB: one slot a chunk) the chunk size, with capacities that
   leave each small class's last chunk partial. Every handle is checked
   against a reference copy of its slot after every operation. *)
let chunk_classes =
  [ (8192, 11); (16384, 6); (32768, 3); (65536, 3); (131072, 2) ]

type model_slot = {
  m_cls : int;
  m_slot : int;
  m_size : int;
  m_addr : int; (* simulated address of the slot's first byte *)
  m_bytes : Bytes.t; (* what the slot must hold, all [m_size] bytes *)
  mutable m_refs : int;
}

type model_handle = {
  h : Mem.Pinned.Buf.t;
  h_slot : model_slot;
  h_off : int; (* window start within the slot *)
  h_len : int;
}

let pattern seed len =
  String.init len (fun i -> Char.chr ((seed + (i * 31)) land 0xff))

let model_agrees hd =
  let want = Bytes.sub_string hd.h_slot.m_bytes hd.h_off hd.h_len in
  let b = Mem.Pinned.Buf.backing hd.h
  and o = Mem.Pinned.Buf.backing_off hd.h in
  let out = Bytes.create hd.h_len in
  Mem.Pinned.Buf.blit_to hd.h ~dst:out ~dst_off:0;
  String.equal want (Mem.View.to_string (Mem.Pinned.Buf.view hd.h))
  && String.equal want (Bytes.sub_string b o hd.h_len)
  && String.equal want (Bytes.unsafe_to_string out)
  && Mem.Pinned.Buf.addr hd.h = hd.h_slot.m_addr + hd.h_off

let is_stale hd =
  match Mem.Pinned.Buf.view hd.h with
  | _ -> false
  | exception Mem.Pinned.Use_after_free _ -> true

let qcheck_chunked_model =
  QCheck.Test.make ~name:"pinned pool matches a byte model across chunks"
    ~count:40
    QCheck.(
      list_of_size (Gen.int_range 1 60)
        (triple (int_bound 8) (int_bound 1_000_000) (int_bound 1_000_000)))
    (fun ops ->
      let space = Mem.Addr_space.create () in
      let pool =
        Mem.Pinned.Pool.create space ~name:"chunked" ~classes:chunk_classes
      in
      let classes = Array.of_list chunk_classes in
      (* Free slots per class, LIFO from slot 0 as the pool hands them out;
         a class's data range starts at the address slot 0 is given. *)
      let free = Array.map (fun (_, cap) -> List.init cap Fun.id) classes in
      let data_base = Array.make (Array.length classes) (-1) in
      let live = ref [] and stale = ref [] in
      let pick n = List.nth !live (n mod List.length !live) in
      let step (op, a, b) =
        match op with
        | (0 | 1) ->
            let ci = a mod Array.length classes in
            let size, _ = classes.(ci) in
            let lo = if ci = 0 then 1 else fst classes.(ci - 1) + 1 in
            let len = lo + (b mod (size - lo + 1)) in
            (match (Mem.Pinned.Buf.alloc ~cpu:none pool ~len, free.(ci)) with
            | exception Mem.Pinned.Out_of_memory _ -> free.(ci) = []
            | _, [] -> false
            | h, slot :: rest ->
                free.(ci) <- rest;
                if slot = 0 && data_base.(ci) < 0 then
                  data_base.(ci) <- Mem.Pinned.Buf.addr h;
                let m_addr = data_base.(ci) + (slot * size) in
                let whole = Mem.Pinned.Buf.sub_view h ~off:0 ~len:size in
                let m_bytes = Bytes.of_string (Mem.View.to_string whole) in
                let p = pattern a len in
                Mem.Pinned.Buf.fill ~cpu:none h p;
                Bytes.blit_string p 0 m_bytes 0 len;
                let m =
                  {
                    m_cls = ci;
                    m_slot = slot;
                    m_size = size;
                    m_addr;
                    m_bytes;
                    m_refs = 1;
                  }
                in
                live := { h; h_slot = m; h_off = 0; h_len = len } :: !live;
                Mem.Pinned.Buf.addr h = m_addr)
        | _ when !live = [] -> true
        | 2 ->
            let hd = pick a in
            Mem.Pinned.Buf.incr_ref ~cpu:none hd.h;
            hd.h_slot.m_refs <- hd.h_slot.m_refs + 1;
            true
        | 3 ->
            let hd = pick a in
            Mem.Pinned.Buf.decr_ref ~cpu:none hd.h;
            let m = hd.h_slot in
            m.m_refs <- m.m_refs - 1;
            if m.m_refs = 0 then begin
              let dead, alive =
                List.partition (fun x -> x.h_slot == m) !live
              in
              live := alive;
              stale := dead @ !stale;
              free.(m.m_cls) <- m.m_slot :: free.(m.m_cls)
            end;
            true
        | 4 ->
            let hd = pick a in
            let p = pattern b (b mod (hd.h_len + 1)) in
            Mem.Pinned.Buf.fill ~cpu:none hd.h p;
            Bytes.blit_string p 0 hd.h_slot.m_bytes hd.h_off (String.length p);
            true
        | 5 ->
            let hd = pick a in
            let len = b mod (hd.h_len + 1) in
            let src_off = b mod 7 in
            let src = Bytes.of_string (pattern a (src_off + len)) in
            Mem.Pinned.Buf.fill_subbytes ~cpu:none hd.h src ~src_off ~len;
            Bytes.blit src src_off hd.h_slot.m_bytes hd.h_off len;
            true
        | 6 ->
            let hd = pick a in
            let dst_off = b mod (hd.h_len + 1) in
            let len = a mod (hd.h_len - dst_off + 1) in
            let p = pattern b len in
            Mem.Pinned.Buf.blit_from ~cpu:none hd.h
              ~src:(Mem.View.of_string space p) ~dst_off;
            Bytes.blit_string p 0 hd.h_slot.m_bytes (hd.h_off + dst_off) len;
            true
        | 7 ->
            let hd = pick a in
            let room = hd.h_slot.m_size - hd.h_off in
            let off = b mod (room + 1) in
            let len = a mod (room - off + 1) in
            let h = Mem.Pinned.Buf.sub hd.h ~off ~len in
            live := { hd with h; h_off = hd.h_off + off; h_len = len } :: !live;
            true
        | _ ->
            let hd = pick a in
            let off = b mod (hd.h_len + 1) in
            let len = a mod (hd.h_len - off + 1) in
            String.equal
              (Mem.View.to_string (Mem.Pinned.Buf.sub_view hd.h ~off ~len))
              (Bytes.sub_string hd.h_slot.m_bytes (hd.h_off + off) len)
      in
      List.for_all
        (fun op ->
          step op
          && List.for_all model_agrees !live
          && List.for_all is_stale !stale)
        ops)

(* --- Packed handles ---------------------------------------------------------

   A handle packs its slot and generation into one int and its window into
   another. Against a model that keeps them unpacked, every accessor must
   give what the unpacked formulas give, for every class size up to 256 KB
   (three slots each) and any window [alloc] and [sub] can make:
   [addr = data_base + slot * size + off], [backing_off = (slot mod
   per_chunk) * size + off] with [per_chunk = max 1 (65536 / size)], and
   [metadata_addr = meta_base + slot * 8]. A handle whose slot was freed
   stays stale after the slot is handed out again. *)

let pack_classes = List.init 19 (fun i -> (1 lsl i, 3))

type packed = {
  p : Mem.Pinned.Buf.t;
  p_cls : int;
  p_slot : int;
  p_off : int;
  p_len : int;
  p_refs : int ref; (* shared by every window on one allocation *)
}

let qcheck_packed_handles =
  QCheck.Test.make ~name:"packed handles match the unpacked formulas"
    ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 80)
        (quad (int_bound 4) (int_bound 18) (int_bound 1_000_000)
           (int_bound 1_000_000)))
    (fun ops ->
      let space = Mem.Addr_space.create () in
      let pool =
        Mem.Pinned.Pool.create space ~name:"packed" ~classes:pack_classes
      in
      let n = List.length pack_classes in
      let free = Array.make n [ 0; 1; 2 ] in
      (* Slot 0 of each class is handed out first: its handle gives the
         class's data and metadata bases. *)
      let data_base = Array.make n (-1) and meta_base = Array.make n (-1) in
      let live = ref [] and stale = ref [] in
      let pick a = List.nth !live (a mod List.length !live) in
      let agrees h =
        let size = 1 lsl h.p_cls in
        let per_chunk = max 1 (65536 / size) in
        Mem.Pinned.Buf.len h.p = h.p_len
        && Mem.Pinned.Buf.slot_size h.p = size
        && Mem.Pinned.Buf.refcount h.p = !(h.p_refs)
        && Mem.Pinned.Buf.is_live h.p
        && Mem.Pinned.Buf.addr h.p
           = data_base.(h.p_cls) + (h.p_slot * size) + h.p_off
        && Mem.Pinned.Buf.backing_off h.p
           = ((h.p_slot mod per_chunk) * size) + h.p_off
        && Mem.Pinned.Buf.metadata_addr h.p
           = meta_base.(h.p_cls) + (h.p_slot * 8)
      in
      let dead h =
        Mem.Pinned.Buf.refcount h.p = 0
        && (not (Mem.Pinned.Buf.is_live h.p))
        &&
        match Mem.Pinned.Buf.view h.p with
        | _ -> false
        | exception Mem.Pinned.Use_after_free { slot; _ } -> slot = h.p_slot
      in
      let step (op, ci, a, b) =
        match (op, free.(ci)) with
        | (0 | 1), [] -> true
        | (0 | 1), slot :: rest ->
            let size = 1 lsl ci in
            let len = (size / 2) + 1 + (a mod (size - (size / 2))) in
            let p = Mem.Pinned.Buf.alloc ~cpu:none pool ~len in
            free.(ci) <- rest;
            if slot = 0 && data_base.(ci) < 0 then begin
              data_base.(ci) <- Mem.Pinned.Buf.addr p;
              meta_base.(ci) <- Mem.Pinned.Buf.metadata_addr p
            end;
            live :=
              { p; p_cls = ci; p_slot = slot; p_off = 0; p_len = len;
                p_refs = ref 1 }
              :: !live;
            true
        | _ when !live = [] -> true
        | 2, _ ->
            let h = pick a in
            let room = (1 lsl h.p_cls) - h.p_off in
            let off = b mod (room + 1) in
            let len = a mod (room - off + 1) in
            let p = Mem.Pinned.Buf.sub h.p ~off ~len in
            live := { h with p; p_off = h.p_off + off; p_len = len } :: !live;
            true
        | 3, _ ->
            let h = pick a in
            Mem.Pinned.Buf.incr_ref ~cpu:none h.p;
            incr h.p_refs;
            true
        | _ ->
            let h = pick a in
            Mem.Pinned.Buf.decr_ref ~cpu:none h.p;
            decr h.p_refs;
            if !(h.p_refs) = 0 then begin
              let gone, kept =
                List.partition (fun x -> x.p_refs == h.p_refs) !live
              in
              live := kept;
              stale := gone @ !stale;
              free.(h.p_cls) <- h.p_slot :: free.(h.p_cls)
            end;
            true
      in
      List.for_all
        (fun op ->
          step op && List.for_all agrees !live && List.for_all dead !stale)
        ops)

(* Generations are kept whole, not cut to the 24 bits beside the slot: a
   handle from generation 0 stays stale once the slot's generation has
   passed 2^24, where a truncated generation would alias it, and the
   exception reports each handle's own generation. *)
let test_generation_past_2_24 () =
  let _space, pool = make_pool ~classes:[ (64, 1) ] () in
  let first = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
  let window = Mem.Pinned.Buf.sub first ~off:8 ~len:16 in
  Mem.Pinned.Buf.decr_ref ~cpu:none first;
  let wrap = 1 lsl 24 in
  let at_wrap = ref None in
  for g = 1 to wrap + 2 do
    let b = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
    if g = wrap then at_wrap := Some b;
    Mem.Pinned.Buf.decr_ref ~cpu:none b
  done;
  let fresh = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
  Alcotest.(check bool) "fresh live" true (Mem.Pinned.Buf.is_live fresh);
  Alcotest.(check int) "same slot" (Mem.Pinned.Buf.addr first)
    (Mem.Pinned.Buf.addr fresh);
  let gen_of label b =
    match Mem.Pinned.Buf.view b with
    | _ -> Alcotest.failf "%s: expected Use_after_free" label
    | exception Mem.Pinned.Use_after_free { gen; _ } -> gen
  in
  Alcotest.(check int) "generation-0 handle" 0 (gen_of "first" first);
  Alcotest.(check int) "generation-0 window" 0 (gen_of "window" window);
  Alcotest.(check int) "generation-2^24 handle" wrap
    (gen_of "at wrap" (Option.get !at_wrap));
  Alcotest.(check int) "stale refcount" 0 (Mem.Pinned.Buf.refcount first)

(* A class capacity above 2^24 does not fit beside the generation: the
   pool refuses it before reserving addresses or building any array. *)
let test_capacity_above_2_24_rejected () =
  let space = Mem.Addr_space.create () in
  let used = Mem.Addr_space.used space in
  let words = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
  (match
     Mem.Pinned.Pool.create space ~name:"huge"
       ~classes:[ (64, 4); (128, (1 lsl 24) + 1) ]
   with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let allocated =
    Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words -. words
  in
  Alcotest.(check int) "no address reserved" used (Mem.Addr_space.used space);
  if allocated > 1000.0 then
    Alcotest.failf "%.0f words allocated before the capacity was refused"
      allocated

let suite =
  [
    Alcotest.test_case "alloc and fill" `Quick test_alloc_and_fill;
    Alcotest.test_case "alloc exhaustion and recycle" `Quick test_alloc_exhaustion;
    Alcotest.test_case "no class large enough" `Quick test_no_class_large_enough;
    Alcotest.test_case "refcount lifecycle" `Quick test_refcount_lifecycle;
    Alcotest.test_case "use after free raises" `Quick test_use_after_free_raises;
    Alcotest.test_case "stale generation detected" `Quick test_stale_generation_detected;
    Alcotest.test_case "sub shares refcount" `Quick test_sub_shares_refcount;
    Alcotest.test_case "recover_ptr middle of allocation" `Quick test_recover_ptr_middle;
    Alcotest.test_case "recover_ptr rejects unpinned" `Quick test_recover_ptr_unpinned_fails;
    Alcotest.test_case "recover_ptr rejects freed slot" `Quick test_recover_ptr_freed_slot_fails;
    Alcotest.test_case "recover_ptr rejects straddle" `Quick test_recover_ptr_straddle_fails;
    Alcotest.test_case "arena copy and reset" `Quick test_arena_copy_and_reset;
    Alcotest.test_case "arena exhaustion" `Quick test_arena_exhaustion;
    Alcotest.test_case "arena recycle reuses chunk" `Quick
      test_arena_recycle_reuses_and_counts;
    QCheck_alcotest.to_alcotest qcheck_arena_recycle_never_live;
    Alcotest.test_case "view sub and blit" `Quick test_view_sub_and_blit;
    Alcotest.test_case "addr space disjoint" `Quick test_addr_space_disjoint;
    QCheck_alcotest.to_alcotest qcheck_alloc_free_capacity;
    QCheck_alcotest.to_alcotest qcheck_recover_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_chunked_model;
    QCheck_alcotest.to_alcotest qcheck_packed_handles;
    Alcotest.test_case "generation past 2^24 stays exact" `Quick
      test_generation_past_2_24;
    Alcotest.test_case "capacity above 2^24 rejected before allocating" `Quick
      test_capacity_above_2_24_rejected;
  ]

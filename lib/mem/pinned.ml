exception
  Use_after_free of {
    pool : string;
    slot : int;
    gen : int;
    history : string list; (* RefSan event history, oldest first; [] when off *)
  }

exception Out_of_memory of string

exception Unpinned

type size_class = {
  size : int; (* power-of-two buffer size *)
  capacity : int;
  data_base : int; (* simulated address of slot 0 *)
  backing : Bytes.t; (* capacity * size real bytes *)
  meta_base : int; (* simulated address of refcount 0 (8 B per slot) *)
  refcounts : int array;
  gens : int array;
  free : int array; (* stack of free slot indices *)
  mutable free_top : int; (* number of entries in [free] *)
}

type pool = {
  name : string;
  uid : int; (* process-unique, for the RefSan ledger *)
  classes : size_class array; (* sorted by size *)
  base : int;
  limit : int;
  freelist_addr : int; (* hot line holding the per-class free-list heads *)
}

module Pool = struct
  type t = pool

  let is_pow2 n = n > 0 && n land (n - 1) = 0

  let create space ~name ~classes =
    if classes = [] then invalid_arg "Pinned.Pool.create: no classes";
    let rec check_sorted = function
      | (a, _) :: ((b, _) :: _ as rest) ->
          if a >= b then invalid_arg "Pinned.Pool.create: classes not increasing";
          check_sorted rest
      | _ -> ()
    in
    check_sorted classes;
    List.iter
      (fun (size, cap) ->
        if not (is_pow2 size) then
          invalid_arg "Pinned.Pool.create: class size must be a power of two";
        if cap <= 0 then invalid_arg "Pinned.Pool.create: capacity must be positive")
      classes;
    let freelist_addr = Addr_space.reserve space ~bytes:64 in
    let base = ref max_int and limit = ref 0 in
    let mk (size, capacity) =
      let data_base = Addr_space.reserve space ~bytes:(size * capacity) in
      let meta_base = Addr_space.reserve space ~bytes:(8 * capacity) in
      if data_base < !base then base := data_base;
      if data_base + (size * capacity) > !limit then
        limit := data_base + (size * capacity);
      let free = Array.init capacity (fun i -> capacity - 1 - i) in
      {
        size;
        capacity;
        data_base;
        backing = Bytes.create (size * capacity);
        meta_base;
        refcounts = Array.make capacity 0;
        gens = Array.make capacity 0;
        free;
        free_top = capacity;
      }
    in
    let classes = Array.of_list (List.map mk classes) in
    {
      name;
      uid = Sanitizer.Refsan.register_pool ();
      classes;
      base = !base;
      limit = !limit;
      freelist_addr;
    }

  let name t = t.name

  let base t = t.base

  let limit t = t.limit

  let contains t ~addr = addr >= t.base && addr < t.limit

  (* Index of the smallest class holding [len] bytes, or -1. *)
  let class_for t ~len =
    let n = Array.length t.classes in
    let i = ref 0 in
    while !i < n && t.classes.(!i).size < len do
      incr i
    done;
    if !i < n then !i else -1

  let live t =
    Array.fold_left (fun acc c -> acc + (c.capacity - c.free_top)) 0 t.classes

  let available_for t ~len =
    let i = class_for t ~len in
    if i < 0 then 0 else t.classes.(i).free_top

  (* Which class owns [addr]? Classes have disjoint contiguous data ranges;
     [-1] when none does. *)
  let rec class_from t ~addr i =
    if i >= Array.length t.classes then -1
    else begin
      let c = t.classes.(i) in
      if addr >= c.data_base && addr < c.data_base + (c.size * c.capacity) then i
      else class_from t ~addr (i + 1)
    end

  let class_of_addr t ~addr = class_from t ~addr 0
end

type t = {
  pool : pool;
  cls : int;
  slot : int;
  gen : int;
  off : int; (* window start within the slot *)
  len : int; (* window length *)
}

module Buf = struct
  type nonrec t = t

  let sc t = t.pool.classes.(t.cls)

  (* RefSan plumbing: the ledger check costs one boolean read when off. *)

  let san_on () = Sanitizer.Refsan.is_enabled ()

  let san_id t =
    let c = sc t in
    {
      Sanitizer.Refsan.pool_uid = t.pool.uid;
      pool = t.pool.name;
      size = c.size;
      slot = t.slot;
      gen = t.gen;
      base = c.data_base + (t.slot * c.size);
    }

  let check_live ?(site = "Pinned.access") ?(op = `Read) t =
    let c = sc t in
    if c.gens.(t.slot) <> t.gen || c.refcounts.(t.slot) = 0 then begin
      let history =
        if san_on () then begin
          let id = san_id t in
          Sanitizer.Refsan.stale_access ~id ~op ~site;
          Sanitizer.Refsan.history id
        end
        else []
      in
      raise (Use_after_free { pool = t.pool.name; slot = t.slot; gen = t.gen; history })
    end

  let meta_addr t = (sc t).meta_base + (t.slot * 8)

  let addr t = (sc t).data_base + (t.slot * (sc t).size) + t.off

  let metadata_addr t = meta_addr t

  let len t = t.len

  let slot_size t = (sc t).size

  let refcount t =
    let c = sc t in
    if c.gens.(t.slot) <> t.gen then 0 else c.refcounts.(t.slot)

  let is_live t =
    let c = sc t in
    c.gens.(t.slot) = t.gen && c.refcounts.(t.slot) > 0

  let charge_meta ~cpu t =
    Memmodel.Cpu.latency_access cpu Memmodel.Cpu.Safety ~addr:(meta_addr t);
    Memmodel.Cpu.charge_op cpu Memmodel.Cpu.Safety Memmodel.Cpu.Refcount_op

  let alloc ~cpu ?(site = "Pinned.alloc") pool ~len =
    match Pool.class_for pool ~len with
    | -1 ->
        raise
          (Out_of_memory
             (Printf.sprintf "%s: no class for %d bytes" pool.name len))
    | cls ->
        let c = pool.classes.(cls) in
        if c.free_top = 0 then
          raise
            (Out_of_memory
               (Printf.sprintf "%s: class %d exhausted" pool.name c.size));
        c.free_top <- c.free_top - 1;
        let slot = c.free.(c.free_top) in
        c.refcounts.(slot) <- 1;
        let t = { pool; cls; slot; gen = c.gens.(slot); off = 0; len } in
        if san_on () then Sanitizer.Refsan.on_alloc ~id:(san_id t) ~site;
        Memmodel.Cpu.charge_op cpu Memmodel.Cpu.Alloc Memmodel.Cpu.Slab_alloc;
        (* Free-list head is a hot line; refcount init touches the slot's
           metadata line. *)
        Memmodel.Cpu.latency_access cpu Memmodel.Cpu.Alloc
          ~addr:pool.freelist_addr;
        Memmodel.Cpu.latency_access cpu Memmodel.Cpu.Alloc ~addr:(meta_addr t);
        t

  let incr_ref ~cpu ?(site = "Pinned.incr_ref") t =
    check_live ~site ~op:`Ref t;
    charge_meta ~cpu t;
    let c = sc t in
    c.refcounts.(t.slot) <- c.refcounts.(t.slot) + 1;
    if san_on () then
      Sanitizer.Refsan.on_incref ~id:(san_id t) ~refs:c.refcounts.(t.slot) ~site

  let free_slot t =
    let c = sc t in
    c.gens.(t.slot) <- c.gens.(t.slot) + 1;
    c.free.(c.free_top) <- t.slot;
    c.free_top <- c.free_top + 1

  let decr_ref ~cpu ?(site = "Pinned.decr_ref") t =
    check_live ~site ~op:`Release t;
    charge_meta ~cpu t;
    let c = sc t in
    c.refcounts.(t.slot) <- c.refcounts.(t.slot) - 1;
    if san_on () then
      Sanitizer.Refsan.on_decref ~id:(san_id t) ~refs:c.refcounts.(t.slot) ~site;
    if c.refcounts.(t.slot) = 0 then begin
      if san_on () then Sanitizer.Refsan.on_free ~id:(san_id t) ~site;
      free_slot t
    end

  let view t =
    check_live ~site:"Pinned.view" ~op:`Read t;
    let c = sc t in
    View.make ~addr:(addr t) ~data:c.backing
      ~off:((t.slot * c.size) + t.off)
      ~len:t.len

  (* Allocation-free window access for per-send hot paths: the backing bytes
     plus the window's start offset within them, without materialising a
     [View]. Callers must stay within [len t] bytes from [backing_off]. *)
  let backing t =
    check_live ~site:"Pinned.backing" ~op:`Read t;
    (sc t).backing

  let backing_off t = (t.slot * (sc t).size) + t.off

  let sub_view ?(site = "Pinned.sub_view") t ~off ~len =
    check_live ~site ~op:`Read t;
    if off < 0 || len < 0 || t.off + off + len > slot_size t then
      invalid_arg "Pinned.Buf.sub_view: window out of bounds";
    let c = sc t in
    View.make ~addr:(addr t + off) ~data:c.backing
      ~off:((t.slot * c.size) + t.off + off)
      ~len

  (* Copy the window out into [dst] (device DMA gather): a read, so no
     RefSan write event, and no intermediate [View]. *)
  let blit_to ?(site = "Pinned.blit_to") t ~dst ~dst_off =
    check_live ~site ~op:`Read t;
    let c = sc t in
    Bytes.blit c.backing ((t.slot * c.size) + t.off) dst dst_off t.len

  let sub ?(site = "Pinned.sub") t ~off ~len =
    check_live ~site ~op:`Read t;
    if off < 0 || len < 0 || t.off + off + len > slot_size t then
      invalid_arg "Pinned.Buf.sub: window out of bounds";
    let t' = { t with off = t.off + off; len } in
    if san_on () then
      Sanitizer.Refsan.on_sub ~id:(san_id t') ~refs:(refcount t') ~site;
    t'

  (* Record a write that bypassed [fill]/[blit_from] (e.g. direct view
     mutation by a protocol header writer, or [Cow_buf.write]) so the
     write-after-post detector still sees it. *)
  let note_write ?(site = "Pinned.write") ?(via_cow = false) t ~off ~len =
    if san_on () then
      Sanitizer.Refsan.on_write ~id:(san_id t) ~refs:(refcount t)
        ~addr:(addr t + off) ~len ~via_cow ~site

  let note_cow_clone ?(site = "Cow_buf.write") t =
    if san_on () then
      Sanitizer.Refsan.on_cow_clone ~id:(san_id t) ~refs:(refcount t) ~site

  (* Declare (and retract) long-lived ownership — e.g. a KV store holding a
     value buffer across requests. Rooted references are not leaks. *)
  let root ?(site = "root") t =
    if san_on () then
      Sanitizer.Refsan.on_root ~id:(san_id t) ~refs:(refcount t) ~site

  let unroot ?(site = "unroot") t =
    if san_on () then
      Sanitizer.Refsan.on_unroot ~id:(san_id t) ~refs:(refcount t) ~site

  (* Declare the buffer's visible window in flight (NIC ring / rtx queue). *)
  let hold ?(site = "dma") ?skip t =
    if san_on () then begin
      let skip = match skip with Some n -> min n t.len | None -> 0 in
      if t.len - skip <= 0 then None
      else
        Some
          (Sanitizer.Refsan.hold ~id:(san_id t) ~refs:(refcount t)
             ~addr:(addr t + skip) ~len:(t.len - skip) ~site)
    end
    else None

  let release_hold = function
    | None -> ()
    | Some token -> Sanitizer.Refsan.release_hold token

  let fill ~cpu ?(site = "Pinned.fill") t s =
    check_live ~site ~op:`Write t;
    if String.length s > slot_size t - t.off then
      invalid_arg "Pinned.Buf.fill: string too long";
    let c = sc t in
    Bytes.blit_string s 0 c.backing ((t.slot * c.size) + t.off)
      (String.length s);
    if san_on () then
      Sanitizer.Refsan.on_write ~id:(san_id t) ~refs:(refcount t)
        ~addr:(addr t) ~len:(String.length s) ~via_cow:false ~site;
    Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:(addr t)
      ~len:(String.length s)

  let fill_substring ~cpu ?(site = "Pinned.fill_substring") t s ~src_off ~len =
    check_live ~site ~op:`Write t;
    if src_off < 0 || len < 0 || src_off + len > String.length s then
      invalid_arg "Pinned.Buf.fill_substring: source out of bounds";
    if len > slot_size t - t.off then
      invalid_arg "Pinned.Buf.fill_substring: string too long";
    let c = sc t in
    Bytes.blit_string s src_off c.backing ((t.slot * c.size) + t.off) len;
    if san_on () then
      Sanitizer.Refsan.on_write ~id:(san_id t) ~refs:(refcount t)
        ~addr:(addr t) ~len ~via_cow:false ~site;
    Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:(addr t) ~len

  (* [fill_substring] over a caller-owned bytes window (e.g. a pooled NIC
     egress frame whose capacity exceeds the packet): same RefSan write
     event and CPU charge, no intermediate string. *)
  let fill_subbytes ~cpu ?(site = "Pinned.fill_subbytes") t s ~src_off ~len =
    check_live ~site ~op:`Write t;
    if src_off < 0 || len < 0 || src_off + len > Bytes.length s then
      invalid_arg "Pinned.Buf.fill_subbytes: source out of bounds";
    if len > slot_size t - t.off then
      invalid_arg "Pinned.Buf.fill_subbytes: source too long";
    let c = sc t in
    Bytes.blit s src_off c.backing ((t.slot * c.size) + t.off) len;
    if san_on () then
      Sanitizer.Refsan.on_write ~id:(san_id t) ~refs:(refcount t)
        ~addr:(addr t) ~len ~via_cow:false ~site;
    Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:(addr t) ~len

  let blit_from ~cpu ?(site = "Pinned.blit_from") t ~src ~dst_off =
    check_live ~site ~op:`Write t;
    if dst_off < 0 || t.off + dst_off + src.View.len > slot_size t then
      invalid_arg "Pinned.Buf.blit_from: out of bounds";
    let c = sc t in
    View.blit src ~dst:c.backing ~dst_off:((t.slot * c.size) + t.off + dst_off);
    if san_on () then
      Sanitizer.Refsan.on_write ~id:(san_id t) ~refs:(refcount t)
        ~addr:(addr t + dst_off) ~len:src.View.len ~via_cow:false ~site;
    Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:src.View.addr
      ~len:src.View.len;
    Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:(addr t + dst_off)
      ~len:src.View.len

  let recover_exn ~cpu ?(site = "Pinned.recover") pool ~addr:a ~len =
    Memmodel.Cpu.charge_op cpu Memmodel.Cpu.Safety Memmodel.Cpu.Range_lookup;
    match Pool.class_of_addr pool ~addr:a with
    | -1 -> raise_notrace Unpinned
    | cls ->
        let c = pool.classes.(cls) in
        let rel = a - c.data_base in
        let slot = rel / c.size in
        let off = rel mod c.size in
        if off + len > c.size then raise_notrace Unpinned
        else if c.refcounts.(slot) = 0 then raise_notrace Unpinned
        else begin
          let t = { pool; cls; slot; gen = c.gens.(slot); off; len } in
          (* Zero-copy safety: recovering a pointer takes a reference. *)
          charge_meta ~cpu t;
          c.refcounts.(slot) <- c.refcounts.(slot) + 1;
          if san_on () then
            Sanitizer.Refsan.on_incref ~id:(san_id t)
              ~refs:c.refcounts.(slot) ~site;
          t
        end
end

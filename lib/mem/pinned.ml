exception
  Use_after_free of {
    pool : string;
    slot : int;
    gen : int;
    history : string list; (* RefSan event history, oldest first; [] when off *)
  }

exception Out_of_memory of string

exception Unpinned

(* Real bytes behind a class come in chunks of [chunk_bytes] (one slot per
   chunk when the class is larger), created the first time a slot in them is
   handed out: a pool reserves its whole simulated range up front but backs
   only the slots it has used. *)
let chunk_bytes = 65536

(* A handle packs its slot and generation into [id] and its window into
   [win]; these bound a class's capacity and a slot's size, and stored
   generations wrap at [gen_mask + 1] so that they always equal the packed
   value. *)
let slot_bits = 24

let slot_mask = (1 lsl slot_bits) - 1

let gen_mask = (1 lsl (63 - slot_bits)) - 1

let len_bits = 31

let len_mask = (1 lsl len_bits) - 1

type size_class = {
  pool : pool; (* the owner, for names and RefSan uids *)
  size : int; (* power-of-two buffer size *)
  capacity : int;
  data_base : int; (* simulated address of slot 0 *)
  chunk_shift : int; (* slot lsr chunk_shift = the slot's chunk *)
  chunk_mask : int; (* slot land chunk_mask = its index in the chunk *)
  chunks : Bytes.t array; (* [Bytes.empty] until first handed out *)
  meta_base : int; (* simulated address of refcount 0 (8 B per slot) *)
  refcounts : int array;
  gens : int array;
  free : int array; (* stack of free slot indices *)
  mutable free_top : int; (* number of entries in [free] *)
}

and pool = {
  name : string;
  uid : int; (* process-unique, for the RefSan ledger *)
  mutable classes : size_class array; (* sorted by size; set once *)
  base : int;
  limit : int;
  freelist_addr : int; (* hot line holding the per-class free-list heads *)
}

module Pool = struct
  type t = pool

  let is_pow2 n = n > 0 && n land (n - 1) = 0

  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

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
        if size > len_mask then
          invalid_arg "Pinned.Pool.create: class size above 2^30";
        if cap <= 0 then
          invalid_arg "Pinned.Pool.create: capacity must be positive";
        if cap > slot_mask + 1 then
          invalid_arg "Pinned.Pool.create: capacity above 2^24")
      classes;
    let freelist_addr = Addr_space.reserve space ~bytes:64 in
    let ranges =
      List.map
        (fun (size, capacity) ->
          let data_base = Addr_space.reserve space ~bytes:(size * capacity) in
          let meta_base = Addr_space.reserve space ~bytes:(8 * capacity) in
          (size, capacity, data_base, meta_base))
        classes
    in
    let pool =
      {
        name;
        uid = Sanitizer.Refsan.register_pool ();
        classes = [||];
        base = List.fold_left (fun b (_, _, d, _) -> min b d) max_int ranges;
        limit =
          List.fold_left (fun l (s, c, d, _) -> max l (d + (s * c))) 0 ranges;
        freelist_addr;
      }
    in
    let mk (size, capacity, data_base, meta_base) =
      let free = Array.init capacity (fun i -> capacity - 1 - i) in
      let per_chunk = max 1 (chunk_bytes / size) in
      let n_chunks = (capacity + per_chunk - 1) / per_chunk in
      {
        pool;
        size;
        capacity;
        data_base;
        chunk_shift = log2 per_chunk;
        chunk_mask = per_chunk - 1;
        chunks = Array.make n_chunks Bytes.empty;
        meta_base;
        refcounts = Array.make capacity 0;
        gens = Array.make capacity 0;
        free;
        free_top = capacity;
      }
    in
    pool.classes <- Array.of_list (List.map mk ranges);
    pool

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

(* Four words: [id] is [gen lsl slot_bits lor slot], [win] is
   [off lsl len_bits lor len] (the window within the slot). *)
type t = { sc : size_class; id : int; win : int }

module Buf = struct
  type nonrec t = t

  let slot_of t = t.id land slot_mask

  let gen_of t = t.id lsr slot_bits

  let off_of t = t.win lsr len_bits

  let len_of t = t.win land len_mask

  let make c ~slot ~off ~len =
    let id = (c.gens.(slot) lsl slot_bits) lor slot in
    { sc = c; id; win = (off lsl len_bits) lor len }

  (* The chunk holding the slot, and the window's start within it. *)
  let chunk t =
    let c = t.sc in
    c.chunks.(slot_of t lsr c.chunk_shift)

  let chunk_off t =
    let c = t.sc in
    ((slot_of t land c.chunk_mask) * c.size) + off_of t

  (* RefSan plumbing: the ledger check costs one boolean read when off. *)

  let san_on () = Sanitizer.Refsan.is_enabled ()

  let san_id t =
    let c = t.sc in
    {
      Sanitizer.Refsan.pool_uid = c.pool.uid;
      pool = c.pool.name;
      size = c.size;
      slot = slot_of t;
      gen = gen_of t;
      base = c.data_base + (slot_of t * c.size);
    }

  let check_live ?(site = "Pinned.access") ?(op = `Read) t =
    let c = t.sc and slot = slot_of t in
    if c.gens.(slot) <> gen_of t || c.refcounts.(slot) = 0 then begin
      let history =
        if san_on () then begin
          let id = san_id t in
          Sanitizer.Refsan.stale_access ~id ~op ~site;
          Sanitizer.Refsan.history id
        end
        else []
      in
      raise
        (Use_after_free { pool = c.pool.name; slot; gen = gen_of t; history })
    end

  let meta_addr t = t.sc.meta_base + (slot_of t * 8)

  let addr t = t.sc.data_base + (slot_of t * t.sc.size) + off_of t

  let metadata_addr t = meta_addr t

  let len = len_of

  let slot_size t = t.sc.size

  let refcount t =
    let c = t.sc and slot = slot_of t in
    if c.gens.(slot) <> gen_of t then 0 else c.refcounts.(slot)

  let is_live t =
    let c = t.sc and slot = slot_of t in
    c.gens.(slot) = gen_of t && c.refcounts.(slot) > 0

  let charge_meta ~cpu t =
    Memmodel.Cpu.latency_access cpu Memmodel.Cpu.Safety ~addr:(meta_addr t);
    Memmodel.Cpu.charge_op cpu Memmodel.Cpu.Safety Memmodel.Cpu.Refcount_op

  (* First use of chunk [ci]: it holds [chunk_mask + 1] slots, or the
     slots that remain when it is the class's last. Zeroed, so what a run
     reads never depends on what the host heap held before. *)
  let back_chunk c ci =
    let first = ci lsl c.chunk_shift in
    let slots = min (c.chunk_mask + 1) (c.capacity - first) in
    c.chunks.(ci) <- Bytes.make (slots * c.size) '\000'

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
        let ci = slot lsr c.chunk_shift in
        if Bytes.length c.chunks.(ci) = 0 then back_chunk c ci;
        c.refcounts.(slot) <- 1;
        let t = make c ~slot ~off:0 ~len in
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
    let c = t.sc and slot = slot_of t in
    c.refcounts.(slot) <- c.refcounts.(slot) + 1;
    if san_on () then
      Sanitizer.Refsan.on_incref ~id:(san_id t) ~refs:c.refcounts.(slot) ~site

  let free_slot t =
    let c = t.sc and slot = slot_of t in
    c.gens.(slot) <- (c.gens.(slot) + 1) land gen_mask;
    c.free.(c.free_top) <- slot;
    c.free_top <- c.free_top + 1

  let decr_ref ~cpu ?(site = "Pinned.decr_ref") t =
    check_live ~site ~op:`Release t;
    charge_meta ~cpu t;
    let c = t.sc and slot = slot_of t in
    c.refcounts.(slot) <- c.refcounts.(slot) - 1;
    if san_on () then
      Sanitizer.Refsan.on_decref ~id:(san_id t) ~refs:c.refcounts.(slot) ~site;
    if c.refcounts.(slot) = 0 then begin
      if san_on () then Sanitizer.Refsan.on_free ~id:(san_id t) ~site;
      free_slot t
    end

  let view t =
    check_live ~site:"Pinned.view" ~op:`Read t;
    View.make ~addr:(addr t) ~data:(chunk t) ~off:(chunk_off t) ~len:(len_of t)

  (* Allocation-free window access for per-send hot paths: the backing bytes
     plus the window's start offset within them, without materialising a
     [View]. Callers must stay within [len t] bytes from [backing_off]. *)
  let backing t =
    check_live ~site:"Pinned.backing" ~op:`Read t;
    chunk t

  let backing_off = chunk_off

  (* [sub_view]'s checks without its [View]: the backing chunk of a live
     buffer whose window [off, off + len) fits the slot. *)
  let sub_backing ?(site = "Pinned.sub_view") t ~off ~len =
    check_live ~site ~op:`Read t;
    if off < 0 || len < 0 || off_of t + off + len > slot_size t then
      invalid_arg "Pinned.Buf.sub_view: window out of bounds";
    chunk t
  [@@alloc_free]

  let sub_view ?site t ~off ~len =
    let data = sub_backing ?site t ~off ~len in
    View.make ~addr:(addr t + off) ~data ~off:(chunk_off t + off) ~len

  (* Copy the window out into [dst] (device DMA gather): a read, so no
     RefSan write event, and no intermediate [View]. *)
  let blit_to ?(site = "Pinned.blit_to") t ~dst ~dst_off =
    check_live ~site ~op:`Read t;
    Bytes.blit (chunk t) (chunk_off t) dst dst_off (len_of t)

  let sub ?(site = "Pinned.sub") t ~off ~len =
    check_live ~site ~op:`Read t;
    if off < 0 || len < 0 || off_of t + off + len > slot_size t then
      invalid_arg "Pinned.Buf.sub: window out of bounds";
    let t' = { t with win = ((off_of t + off) lsl len_bits) lor len } in
    if san_on () then
      Sanitizer.Refsan.on_sub ~id:(san_id t') ~refs:(refcount t') ~site;
    t'

  (* Record a write that bypassed [fill]/[blit_from] (e.g. direct view
     mutation by a protocol header writer) so the write-after-post detector
     still sees it. *)
  let note_write ?(site = "Pinned.write") t ~off ~len =
    if san_on () then
      Sanitizer.Refsan.on_write ~id:(san_id t) ~refs:(refcount t)
        ~addr:(addr t + off) ~len ~site

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
      let skip = match skip with Some n -> min n (len_of t) | None -> 0 in
      if len_of t - skip <= 0 then None
      else
        Some
          (Sanitizer.Refsan.hold ~id:(san_id t) ~refs:(refcount t)
             ~addr:(addr t + skip) ~len:(len_of t - skip) ~site)
    end
    else None

  let release_hold = function
    | None -> ()
    | Some token -> Sanitizer.Refsan.release_hold token

  let fill ~cpu ?(site = "Pinned.fill") t s =
    check_live ~site ~op:`Write t;
    if String.length s > slot_size t - off_of t then
      invalid_arg "Pinned.Buf.fill: string too long";
    Bytes.blit_string s 0 (chunk t) (chunk_off t) (String.length s);
    if san_on () then
      Sanitizer.Refsan.on_write ~id:(san_id t) ~refs:(refcount t)
        ~addr:(addr t) ~len:(String.length s) ~site;
    Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:(addr t)
      ~len:(String.length s)

  let fill_substring ~cpu ?(site = "Pinned.fill_substring") t s ~src_off ~len =
    check_live ~site ~op:`Write t;
    if src_off < 0 || len < 0 || src_off + len > String.length s then
      invalid_arg "Pinned.Buf.fill_substring: source out of bounds";
    if len > slot_size t - off_of t then
      invalid_arg "Pinned.Buf.fill_substring: string too long";
    Bytes.blit_string s src_off (chunk t) (chunk_off t) len;
    if san_on () then
      Sanitizer.Refsan.on_write ~id:(san_id t) ~refs:(refcount t)
        ~addr:(addr t) ~len ~site;
    Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:(addr t) ~len

  (* [fill_substring] over a caller-owned bytes window (e.g. a pooled NIC
     egress frame whose capacity exceeds the packet): same RefSan write
     event and CPU charge, no intermediate string. *)
  let fill_subbytes ~cpu ?(site = "Pinned.fill_subbytes") t s ~src_off ~len =
    check_live ~site ~op:`Write t;
    if src_off < 0 || len < 0 || src_off + len > Bytes.length s then
      invalid_arg "Pinned.Buf.fill_subbytes: source out of bounds";
    if len > slot_size t - off_of t then
      invalid_arg "Pinned.Buf.fill_subbytes: source too long";
    Bytes.blit s src_off (chunk t) (chunk_off t) len;
    if san_on () then
      Sanitizer.Refsan.on_write ~id:(san_id t) ~refs:(refcount t)
        ~addr:(addr t) ~len ~site;
    Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:(addr t) ~len

  let blit_from ~cpu ?(site = "Pinned.blit_from") t ~src ~dst_off =
    check_live ~site ~op:`Write t;
    if dst_off < 0 || off_of t + dst_off + src.View.len > slot_size t then
      invalid_arg "Pinned.Buf.blit_from: out of bounds";
    View.blit src ~dst:(chunk t) ~dst_off:(chunk_off t + dst_off);
    if san_on () then
      Sanitizer.Refsan.on_write ~id:(san_id t) ~refs:(refcount t)
        ~addr:(addr t + dst_off) ~len:src.View.len ~site;
    Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:src.View.addr
      ~len:src.View.len;
    Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:(addr t + dst_off)
      ~len:src.View.len

  (* [blit_from] with a pinned source window [src_off, src_off + len) of
     [src], read in place: the same bytes, RefSan write event and charges,
     with no source [View] built. *)
  let blit_from_buf ~cpu ?(site = "Pinned.blit_from") t ~src ~src_off ~len
      ~dst_off =
    check_live ~site ~op:`Read src;
    if src_off < 0 || len < 0 || off_of src + src_off + len > slot_size src then
      invalid_arg "Pinned.Buf.blit_from_buf: source out of bounds";
    check_live ~site ~op:`Write t;
    if dst_off < 0 || off_of t + dst_off + len > slot_size t then
      invalid_arg "Pinned.Buf.blit_from: out of bounds";
    Bytes.blit (chunk src) (chunk_off src + src_off) (chunk t)
      (chunk_off t + dst_off) len;
    if san_on () then
      Sanitizer.Refsan.on_write ~id:(san_id t) ~refs:(refcount t)
        ~addr:(addr t + dst_off) ~len ~site;
    Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:(addr src + src_off) ~len;
    Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:(addr t + dst_off) ~len
  [@@alloc_free]

  let recover_exn ~cpu ?(site = "Pinned.recover") pool ~addr:a ~len =
    Memmodel.Cpu.charge_op cpu Memmodel.Cpu.Safety Memmodel.Cpu.Range_lookup;
    match Pool.class_of_addr pool ~addr:a with
    | -1 -> raise_notrace Unpinned
    | cls ->
        let c = pool.classes.(cls) in
        let rel = a - c.data_base in
        let slot = rel / c.size in
        let off = rel mod c.size in
        if len < 0 || off + len > c.size then raise_notrace Unpinned
        else if c.refcounts.(slot) = 0 then raise_notrace Unpinned
        else begin
          let t = make c ~slot ~off ~len in
          (* Zero-copy safety: recovering a pointer takes a reference. *)
          charge_meta ~cpu t;
          c.refcounts.(slot) <- c.refcounts.(slot) + 1;
          if san_on () then
            Sanitizer.Refsan.on_incref ~id:(san_id t)
              ~refs:c.refcounts.(slot) ~site;
          t
        end
end

exception Out_of_memory = Pinned.Out_of_memory

(* Size-classed free lists: recycled chunks are parked per power-of-two
   class and handed back out before the bump pointer is advanced, so a
   steady-state request loop reuses the same few cache-hot chunks instead
   of marching through the arena. Every allocation reserves its class size
   (16 B .. 128 KB); larger requests fall back to exact-size bump
   allocations that are not recyclable. *)

let min_class_log = 4 (* 16 B *)

let max_class_log = 17 (* 128 KB *)

let n_classes = max_class_log - min_class_log + 1

(* Constant-time size-class lookup: [class_table.((len - 1) lsr 4)] is the
   class index of [len]. Every power-of-two class boundary is a multiple of
   the 16 B granule, so each table slot covers lengths of exactly one
   class. One load replaces the old linear search — this is on both the
   alloc and recycle hot paths. *)
let class_table =
  Array.init
    (1 lsl (max_class_log - min_class_log))
    (fun i ->
      let len = (i + 1) lsl min_class_log in
      let rec go l = if 1 lsl l >= len then l else go (l + 1) in
      go min_class_log - min_class_log)

(* Class index of [len], or [-1] when [len] exceeds the largest class
   (bump-only). Returns an immediate int so the hot path allocates
   nothing. *)
let class_index len =
  if len <= 1 lsl min_class_log then 0
  else if len > 1 lsl max_class_log then -1
  else Array.unsafe_get class_table ((len - 1) lsr min_class_log)
[@@alloc_free]

let class_size cls = 1 lsl (cls + min_class_log)

(* Per-class stack of recycled chunk offsets; grows by doubling so the
   steady state pushes and pops without allocating. *)
type free_stack = { mutable offs : int array; mutable top : int }

type t = {
  base_addr : int;
  backing : Bytes.t;
  mutable used : int;
  free : free_stack array;
  mutable recycle_hits : int; (* allocations served from a free list *)
  mutable parked : int; (* chunks currently on free lists *)
  (* RefSan: recycling is modeled as free + alloc-with-a-reuse-label, so
     the ledger shows the chunk's lifecycle. Chunks only enter the ledger
     once they have been recycled; plain bump allocations stay untracked
     (exactly the pre-free-list behaviour). *)
  san_uid : int;
  san_gens : (int, int) Hashtbl.t; (* chunk offset -> generation *)
  san_live : (int, Sanitizer.Refsan.buf_id) Hashtbl.t;
  (* Fault injection: a soft capacity below the backing size makes the
     arena behave as if it were that small, without reallocating. *)
  mutable soft_capacity : int option;
  mutable oom_events : int;
}

let create space ~capacity =
  {
    base_addr = Addr_space.reserve space ~bytes:capacity;
    backing = Bytes.create capacity;
    used = 0;
    free = Array.init n_classes (fun _ -> { offs = [||]; top = 0 });
    recycle_hits = 0;
    parked = 0;
    san_uid = Sanitizer.Refsan.register_pool ();
    san_gens = Hashtbl.create 64;
    san_live = Hashtbl.create 64;
    soft_capacity = None;
    oom_events = 0;
  }

let used t = t.used

let capacity t = Bytes.length t.backing

let recycle_hits t = t.recycle_hits

let parked t = t.parked

let set_soft_capacity t cap =
  (match cap with
  | Some c when c < 0 -> invalid_arg "Arena.set_soft_capacity: negative capacity"
  | _ -> ());
  t.soft_capacity <- cap

let soft_capacity t = t.soft_capacity

let effective_capacity t =
  match t.soft_capacity with
  | Some c -> min c (Bytes.length t.backing)
  | None -> Bytes.length t.backing

let oom_events t = t.oom_events

let push stack off =
  let cap = Array.length stack.offs in
  if stack.top >= cap then begin
    let arr = Array.make (max 8 (2 * cap)) 0 in
    Array.blit stack.offs 0 arr 0 stack.top;
    stack.offs <- arr
  end;
  stack.offs.(stack.top) <- off;
  stack.top <- stack.top + 1

let san_gen t off =
  match Hashtbl.find_opt t.san_gens off with Some g -> g | None -> 0

let san_id t ~off ~cls =
  {
    Sanitizer.Refsan.pool_uid = t.san_uid;
    pool = "arena";
    size = class_size cls;
    slot = off lsr min_class_log;
    gen = san_gen t off;
    base = t.base_addr + off;
  }

let alloc ~cpu ?(site = "Arena.alloc") t ~len =
  Memmodel.Cpu.charge_op cpu Memmodel.Cpu.Alloc Memmodel.Cpu.Arena_alloc;
  let cls = class_index len in
  if cls >= 0 && t.free.(cls).top > 0 then begin
    (* Recycled chunk: modeled for RefSan as a fresh allocation with a
       reuse label; rooted so a chunk held across the quiesce point is
       not misreported as a leak (the arena owns it until recycle/reset). *)
    let stack = t.free.(cls) in
    stack.top <- stack.top - 1;
    let off = stack.offs.(stack.top) in
    t.recycle_hits <- t.recycle_hits + 1;
    t.parked <- t.parked - 1;
    if Sanitizer.Refsan.is_enabled () then begin
      let id = san_id t ~off ~cls in
      Sanitizer.Refsan.on_alloc ~id ~site:("Arena.reuse:" ^ site);
      Sanitizer.Refsan.on_root ~id ~refs:1 ~site:("Arena.reuse:" ^ site);
      Hashtbl.replace t.san_live off id
    end;
    View.make ~addr:(t.base_addr + off) ~data:t.backing ~off ~len
  end
  else begin
    let chunk = if cls >= 0 then class_size cls else len in
    if t.used + chunk > effective_capacity t then begin
      t.oom_events <- t.oom_events + 1;
      raise (Out_of_memory "arena exhausted")
    end;
    let off = t.used in
    t.used <- t.used + chunk;
    View.make ~addr:(t.base_addr + off) ~data:t.backing ~off ~len
  end

let copy_in ~cpu ?site t src =
  let dst = alloc ~cpu ?site t ~len:src.View.len in
  View.blit src ~dst:t.backing ~dst_off:dst.View.off;
  Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:src.View.addr
    ~len:src.View.len;
  Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:dst.View.addr
    ~len:src.View.len;
  dst

(* [copy_in] from a pinned buffer's window, read straight out of its
   backing chunk: the same bytes and charges, without a [View] of the
   source. *)
let copy_in_buf ~cpu ?site t buf =
  let len = Pinned.Buf.len buf in
  let dst = alloc ~cpu ?site t ~len in
  Pinned.Buf.blit_to ?site buf ~dst:t.backing ~dst_off:dst.View.off;
  Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:(Pinned.Buf.addr buf) ~len;
  Memmodel.Cpu.stream cpu Memmodel.Cpu.Copy ~addr:dst.View.addr ~len;
  dst

(* Generation bumps only happen while the sanitizer observes: with it off
   the gens table is never read, and keeping the recycle hit path free of
   hashing (and of the [Hashtbl.replace] allocation) is what makes
   free-list reuse cheaper than the bump path it replaces. *)
let san_free t ~off ~cls ~site =
  if Sanitizer.Refsan.is_enabled () then begin
    let id = san_id t ~off ~cls in
    (match Hashtbl.find_opt t.san_live off with
    | Some live ->
        Sanitizer.Refsan.on_unroot ~id:live ~refs:1 ~site;
        Hashtbl.remove t.san_live off
    | None -> ());
    Sanitizer.Refsan.on_free ~id ~site;
    Hashtbl.replace t.san_gens off (san_gen t off + 1)
  end

let recycle ?(site = "Arena.recycle") t (v : View.t) =
  if v.View.data != t.backing then
    invalid_arg "Arena.recycle: view is not from this arena";
  let cls = class_index v.View.len in
  (* Oversized chunks are bump-only; reclaimed at reset. *)
  if cls >= 0 then begin
    san_free t ~off:v.View.off ~cls ~site;
    push t.free.(cls) v.View.off;
    t.parked <- t.parked + 1
  end
[@@alloc_free]

let reset t =
  if Sanitizer.Refsan.is_enabled () then
    Hashtbl.iter
      (fun _off id ->
        Sanitizer.Refsan.on_unroot ~id ~refs:1 ~site:"Arena.reset";
        Sanitizer.Refsan.on_free ~id ~site:"Arena.reset")
      t.san_live;
  (* [Hashtbl.reset] allocates a fresh bucket array; with the sanitizer off
     the table never gains entries, so per-iteration resets (the serve-loop
     hot path) skip it entirely. *)
  if Hashtbl.length t.san_live > 0 then Hashtbl.reset t.san_live;
  t.used <- 0;
  t.parked <- 0;
  Array.iter (fun s -> s.top <- 0) t.free

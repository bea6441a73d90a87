type value =
  | Single of Mem.Pinned.Buf.t
  | Linked of Mem.Pinned.Buf.t list
  | Vector of Mem.Pinned.Buf.t array

type entry = {
  mutable v : value;
  meta_addr : int; (* simulated address of the entry record *)
}

type t = {
  name : string;
  table : (string, entry) Hashtbl.t;
  bucket_base : int; (* simulated address of the bucket array *)
  nbuckets : int;
  entry_base : int; (* simulated region for entry records *)
  entry_bytes : int;
  mutable next_entry : int;
}

(* One cache line per entry record holds the key and value pointer; linked
   list / vector node descriptors follow in the same region. *)
let entry_record_bytes = 64

let create space ~name ~capacity =
  let nbuckets =
    let rec pow2 n = if n >= capacity then n else pow2 (n * 2) in
    pow2 1024
  in
  let entry_bytes = capacity * 2 * entry_record_bytes in
  {
    name;
    table = Hashtbl.create capacity;
    bucket_base = Mem.Addr_space.reserve space ~bytes:(8 * nbuckets);
    nbuckets;
    entry_base = Mem.Addr_space.reserve space ~bytes:entry_bytes;
    entry_bytes;
    next_entry = 0;
  }

let size t = Hashtbl.length t.table

let buffers = function
  | Single b -> [ b ]
  | Linked bs -> bs
  | Vector arr -> Array.to_list arr

let value_len v =
  List.fold_left (fun acc b -> acc + Mem.Pinned.Buf.len b) 0 (buffers v)

(* Store-owned references are legitimate long-lived state, not leaks:
   declare them to RefSan as roots while the entry holds them. *)
let root_value v =
  List.iter (fun b -> Mem.Pinned.Buf.root ~site:"Store.put" b) (buffers v)

let release_value ~cpu v =
  List.iter
    (fun b ->
      Mem.Pinned.Buf.unroot ~site:"Store.release" b;
      Mem.Pinned.Buf.decr_ref ~cpu ~site:"Store.release" b)
    (buffers v)

let bucket_addr t key =
  t.bucket_base + (8 * (Hashtbl.hash key land (t.nbuckets - 1)))

(* Hash plus the bucket line: what every lookup pays, hit or miss. *)
let charge_probe ~cpu t key =
  Memmodel.Cpu.charge_op cpu Memmodel.Cpu.App Memmodel.Cpu.Hash_op;
  Memmodel.Cpu.latency_access cpu Memmodel.Cpu.App ~addr:(bucket_addr t key)

let charge_lookup ~cpu t key entry_addr =
  charge_probe ~cpu t key;
  Memmodel.Cpu.latency_access cpu Memmodel.Cpu.App ~addr:entry_addr;
  (* Key compare sweeps the key bytes stored in the entry record. *)
  Memmodel.Cpu.stream cpu Memmodel.Cpu.App ~addr:(entry_addr + 16)
    ~len:(min 48 (String.length key))

let alloc_entry_addr t =
  let off = t.next_entry in
  t.next_entry <- (t.next_entry + entry_record_bytes) mod t.entry_bytes;
  t.entry_base + off

let put ~cpu t ~key v =
  root_value v;
  match Hashtbl.find_opt t.table key with
  | Some entry ->
      charge_lookup ~cpu t key entry.meta_addr;
      let old = entry.v in
      entry.v <- v;
      release_value ~cpu old
  | None ->
      let meta_addr = alloc_entry_addr t in
      charge_lookup ~cpu t key meta_addr;
      Hashtbl.replace t.table key { v; meta_addr }

let get ?(cpu = Memmodel.Cpu.none) t ~key =
  match Hashtbl.find_opt t.table key with
  | None ->
      charge_probe ~cpu t key;
      None
  | Some entry ->
      charge_lookup ~cpu t key entry.meta_addr;
      (* Traversing a multi-buffer value touches its node descriptors,
         packed after the entry record (4 per line). *)
      (match entry.v with
      | Linked bs ->
          Memmodel.Cpu.stream cpu Memmodel.Cpu.App ~addr:(entry.meta_addr + 64)
            ~len:(16 * List.length bs)
      | Vector arr ->
          Memmodel.Cpu.stream cpu Memmodel.Cpu.App ~addr:(entry.meta_addr + 64)
            ~len:(16 * Array.length arr)
      | Single _ -> ());
      Some entry.v

let remove ~cpu t ~key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some entry ->
      charge_lookup ~cpu t key entry.meta_addr;
      release_value ~cpu entry.v;
      Hashtbl.remove t.table key

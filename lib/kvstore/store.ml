type value =
  | Single of Mem.Pinned.Buf.t
  | Linked of Mem.Pinned.Buf.t list
  | Vector of Mem.Pinned.Buf.t array

(* The index is open addressing with linear probing over an int array:
   a slot packs an entry number above the key's 30-bit hash, -1 when
   empty. Growth keeps the load at or below 1/2, so a probe always ends at
   an empty slot, and deletion shifts the rest of the probe chain back (no
   tombstones). Entries live densely, in insertion order, in parallel
   arrays, so keys inserted together share cache lines: a preload inserts
   ranks in order, and the low ranks are the hot keys of a Zipf trace. *)
type t = {
  name : string;
  bucket_base : int; (* simulated address of the bucket array *)
  nbuckets : int;
  entry_base : int; (* simulated region for entry records *)
  entry_bytes : int;
  mutable next_entry : int;
  mutable slots : int array;
  mutable keys : string array; (* entry -> key *)
  mutable vals : value array; (* entry -> value *)
  mutable records : int array; (* entry -> simulated entry-record address *)
  mutable count : int; (* entries [0, count) are live *)
}

(* One cache line per entry record holds the key and value pointer; linked
   list / vector node descriptors follow in the same region. *)
let entry_record_bytes = 64

let hash_bits = 30

let hash_mask = (1 lsl hash_bits) - 1

let no_value = Vector [||]

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (p * 2)

let create space ~name ~capacity =
  let nbuckets = pow2_at_least capacity 1024 in
  let entry_bytes = capacity * 2 * entry_record_bytes in
  let entries = max 4 capacity in
  {
    name;
    bucket_base = Mem.Addr_space.reserve space ~bytes:(8 * nbuckets);
    nbuckets;
    entry_base = Mem.Addr_space.reserve space ~bytes:entry_bytes;
    entry_bytes;
    next_entry = 0;
    slots = Array.make (pow2_at_least (2 * entries) 8) (-1);
    keys = Array.make entries "";
    vals = Array.make entries no_value;
    records = Array.make entries 0;
    count = 0;
  }

let size t = t.count

let buffers = function
  | Single b -> [ b ]
  | Linked bs -> bs
  | Vector arr -> Array.to_list arr

let value_len v =
  List.fold_left (fun acc b -> acc + Mem.Pinned.Buf.len b) 0 (buffers v)

(* --- the key hash ------------------------------------------------------- *)

(* OCaml's generic hash of a string (runtime/hash.c with seed 0): a
   MurmurHash3 mix over little-endian 32-bit words, then the 1-3 tail
   bytes, then the length, the final mix and the low 30 bits. Plain ints:
   a 63-bit product or xor keeps its low 32 bits exact, so values carry
   garbage above bit 31 between steps and only the input of a rotate or a
   right shift is masked to 32 bits. *)
let mask32 = 0xFFFF_FFFF

let[@inline] mix h d =
  let d = (d * 0xcc9e2d51) land mask32 in
  let d = ((d lsl 15) lor (d lsr 17)) * 0x1b873593 in
  let h = (h lxor d) land mask32 in
  (((h lsl 13) lor (h lsr 19)) * 5) + 0xe6546b64

let[@inline] byte data p = Char.code (Bytes.unsafe_get data p)

external get32_ne : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

(* A little-endian 32-bit word: one load on a little-endian host (the
   branch folds away at compile time). *)
let[@inline] word data q =
  if Sys.big_endian then
    byte data q
    lor (byte data (q + 1) lsl 8)
    lor (byte data (q + 2) lsl 16)
    lor (byte data (q + 3) lsl 24)
  else Int32.to_int (get32_ne data q)

let hash_window data off len =
  let h = ref 0 in
  let p = ref off in
  let stop = off + len - 4 in
  while !p <= stop do
    h := mix !h (word data !p);
    p := !p + 4
  done;
  let tail = len land 3 in
  if tail > 0 then begin
    let w = ref 0 in
    for k = tail - 1 downto 0 do
      w := (!w lsl 8) lor byte data (!p + k)
    done;
    h := mix !h !w
  end;
  let h = (!h lxor len) land mask32 in
  let h = h lxor (h lsr 16) in
  let h = (h * 0x85ebca6b) land mask32 in
  let h = h lxor (h lsr 13) in
  let h = (h * 0xc2b2ae35) land mask32 in
  (h lxor (h lsr 16)) land hash_mask

let check_window fn data ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length data - len then
    invalid_arg ("Store." ^ fn ^ ": key window out of bounds")

let hash data ~off ~len =
  check_window "hash" data ~off ~len;
  hash_window data off len

(* --- probing ------------------------------------------------------------ *)

let key_equal k data off len =
  String.length k = len
  && begin
       let i = ref 0 in
       while
         !i < len && String.unsafe_get k !i = Bytes.unsafe_get data (off + !i)
       do
         incr i
       done;
       !i = len
     end

(* The slot holding the key hashed to [h], or [lnot s] for the empty slot
   [s] that ended the probe. *)
let probe t data off len h =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) in
  let found = ref min_int in
  while !found = min_int do
    let w = Array.unsafe_get slots !i in
    if w < 0 then found := lnot !i
    else if
      w land hash_mask = h
      && key_equal (Array.unsafe_get t.keys (w lsr hash_bits)) data off len
    then found := !i
    else i := (!i + 1) land mask
  done;
  !found

let first_empty slots h =
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) in
  while Array.unsafe_get slots !i >= 0 do
    i := (!i + 1) land mask
  done;
  !i

let grow_slots t =
  let old = t.slots in
  t.slots <- Array.make (2 * Array.length old) (-1);
  Array.iter
    (fun w ->
      if w >= 0 then t.slots.(first_empty t.slots (w land hash_mask)) <- w)
    old

let grow_entries t =
  let n = 2 * Array.length t.keys in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.count;
    b
  in
  t.keys <- extend t.keys "";
  t.vals <- extend t.vals no_value;
  t.records <- extend t.records 0

(* Backward-shift deletion: walk the chain past the hole, moving back each
   slot whose home does not lie cyclically in (hole, j]. *)
let delete_slot t slot =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let hole = ref slot in
  let j = ref ((slot + 1) land mask) in
  while slots.(!j) >= 0 do
    let home = slots.(!j) land hash_mask land mask in
    if (!j - home) land mask >= (!j - !hole) land mask then begin
      slots.(!hole) <- slots.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  slots.(!hole) <- -1

(* Drop the entry at [slot]: clear the slot, then move the last entry into
   the freed entry number and repoint its slot, keeping entries dense. *)
let delete t slot =
  let e = t.slots.(slot) lsr hash_bits in
  delete_slot t slot;
  let last = t.count - 1 in
  if e <> last then begin
    let key = t.keys.(last) in
    let h = hash_window (Bytes.unsafe_of_string key) 0 (String.length key) in
    let mask = Array.length t.slots - 1 in
    let j = ref (h land mask) in
    while t.slots.(!j) lsr hash_bits <> last do
      j := (!j + 1) land mask
    done;
    t.slots.(!j) <- (e lsl hash_bits) lor h;
    t.keys.(e) <- key;
    t.vals.(e) <- t.vals.(last);
    t.records.(e) <- t.records.(last)
  end;
  t.keys.(last) <- "";
  t.vals.(last) <- no_value;
  t.count <- last

(* --- simulated costs ---------------------------------------------------- *)

let bucket_addr t h = t.bucket_base + (8 * (h land (t.nbuckets - 1)))

(* Hash plus the bucket line: what every lookup pays, hit or miss. *)
let charge_probe ~cpu t h =
  Memmodel.Cpu.charge_op cpu Memmodel.Cpu.App Memmodel.Cpu.Hash_op;
  Memmodel.Cpu.latency_access cpu Memmodel.Cpu.App ~addr:(bucket_addr t h)

let charge_lookup ~cpu t h ~len entry_addr =
  charge_probe ~cpu t h;
  Memmodel.Cpu.latency_access cpu Memmodel.Cpu.App ~addr:entry_addr;
  (* Key compare sweeps the key bytes stored in the entry record. *)
  Memmodel.Cpu.stream cpu Memmodel.Cpu.App ~addr:(entry_addr + 16)
    ~len:(min 48 len)

let alloc_entry_addr t =
  let off = t.next_entry in
  t.next_entry <- (t.next_entry + entry_record_bytes) mod t.entry_bytes;
  t.entry_base + off

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

(* --- operations --------------------------------------------------------- *)

let find ~cpu t data ~off ~len =
  check_window "find" data ~off ~len;
  let h = hash_window data off len in
  let slot = probe t data off len h in
  if slot < 0 then begin
    charge_probe ~cpu t h;
    -1
  end
  else begin
    let e = Array.unsafe_get t.slots slot lsr hash_bits in
    let addr = Array.unsafe_get t.records e in
    charge_lookup ~cpu t h ~len addr;
    (* Traversing a multi-buffer value touches its node descriptors,
       packed after the entry record (4 per line). *)
    (match Array.unsafe_get t.vals e with
    | Linked bs ->
        Memmodel.Cpu.stream cpu Memmodel.Cpu.App ~addr:(addr + 64)
          ~len:(16 * List.length bs)
    | Vector arr ->
        Memmodel.Cpu.stream cpu Memmodel.Cpu.App ~addr:(addr + 64)
          ~len:(16 * Array.length arr)
    | Single _ -> ());
    e
  end

let value t e =
  if e < 0 || e >= t.count then invalid_arg "Store.value: no such entry";
  Array.unsafe_get t.vals e

let put ~cpu t data ~off ~len v =
  check_window "put" data ~off ~len;
  root_value v;
  let h = hash_window data off len in
  let slot = probe t data off len h in
  if slot >= 0 then begin
    let e = t.slots.(slot) lsr hash_bits in
    charge_lookup ~cpu t h ~len t.records.(e);
    let old = t.vals.(e) in
    t.vals.(e) <- v;
    release_value ~cpu old
  end
  else begin
    let addr = alloc_entry_addr t in
    charge_lookup ~cpu t h ~len addr;
    let slot =
      if 2 * (t.count + 1) > Array.length t.slots then begin
        grow_slots t;
        first_empty t.slots h
      end
      else lnot slot
    in
    if t.count = Array.length t.keys then grow_entries t;
    let e = t.count in
    t.slots.(slot) <- (e lsl hash_bits) lor h;
    t.keys.(e) <- Bytes.sub_string data off len;
    t.vals.(e) <- v;
    t.records.(e) <- addr;
    t.count <- e + 1
  end

let remove ~cpu t data ~off ~len =
  check_window "remove" data ~off ~len;
  let h = hash_window data off len in
  let slot = probe t data off len h in
  if slot >= 0 then begin
    let e = t.slots.(slot) lsr hash_bits in
    charge_lookup ~cpu t h ~len t.records.(e);
    release_value ~cpu t.vals.(e);
    delete t slot
  end

(* --- whole-string keys -------------------------------------------------- *)

let put_string ~cpu t ~key v =
  put ~cpu t (Bytes.unsafe_of_string key) ~off:0 ~len:(String.length key) v

let get ?(cpu = Memmodel.Cpu.none) t ~key =
  let e =
    find ~cpu t (Bytes.unsafe_of_string key) ~off:0 ~len:(String.length key)
  in
  if e < 0 then None else Some t.vals.(e)

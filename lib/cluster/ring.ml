(* Consistent-hash ring with virtual nodes.

   Each shard projects [vnodes] points onto the 64-bit hash circle; a key
   is owned by the shard whose point is the first at or clockwise of the
   key's hash (wrapping at the top). Because a shard's points depend only
   on its own id, adding or removing a shard leaves every other shard's
   points where they were: the only keys that move are those whose
   successor point changed, i.e. an expected 1/(n+1) fraction on growth —
   the "minimal remapping" property the QCheck suite pins down.

   The structure is immutable after [create]: experiment jobs and the
   parallel population planner capture it freely across domains. *)

type t = {
  vnodes : int;
  shards : int array; (* member shard ids, sorted, for introspection *)
  points : int64 array; (* vnode positions, sorted unsigned *)
  owners : int array; (* owners.(i) = shard id owning points.(i) *)
}

(* FNV-1a over the key bytes, then a SplitMix64 finalizer: FNV alone
   clusters sequential keys ("cl:0000000000000042") in the low bits; the
   mix scatters them across the whole circle. *)
let fnv_offset = 0xCBF29CE484222325L

let fnv_prime = 0x100000001B3L

let[@inline] hash_window data ~off ~len =
  let h = ref fnv_offset in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get data i))))
        fnv_prime
  done;
  Sim.Rng.mix64 !h

(* A vnode position mixes (shard, replica) so distinct shards never share
   point sequences and one shard's points are spread independently. *)
let vnode_point ~shard ~replica =
  Sim.Rng.mix64
    (Int64.logxor
       (Sim.Rng.mix64 (Int64.of_int (shard + 1)))
       (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (replica + 1))))

let create ?(vnodes = 128) shard_ids =
  if shard_ids = [] then invalid_arg "Ring.create: no shards";
  if vnodes < 1 then invalid_arg "Ring.create: vnodes < 1";
  let shards = Array.of_list (List.sort_uniq compare shard_ids) in
  let n = Array.length shards in
  let entries = Array.make (n * vnodes) (0L, 0) in
  Array.iteri
    (fun i shard ->
      for r = 0 to vnodes - 1 do
        entries.((i * vnodes) + r) <- (vnode_point ~shard ~replica:r, shard)
      done)
    shards;
  (* Unsigned point order; ties (astronomically rare) break on shard id so
     the ring is a pure function of its membership set. *)
  Array.sort
    (fun (p1, s1) (p2, s2) ->
      match Int64.unsigned_compare p1 p2 with 0 -> compare s1 s2 | c -> c)
    entries;
  {
    vnodes;
    shards;
    points = Array.map fst entries;
    owners = Array.map snd entries;
  }

let shards t = Array.to_list t.shards

let vnodes t = t.vnodes

(* First point >= h (unsigned), wrapping to points.(0) past the top. *)
let[@inline] owner_of_hash t h =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare t.points.(mid) h < 0 then lo := mid + 1
    else hi := mid
  done;
  t.owners.(if !lo = n then 0 else !lo)

(* Placement ([Plan]) and routing (the dispatcher, straight out of the
   receive buffer) share this one hash. Both helpers inline here, so the
   64-bit hash stays unboxed: a lookup allocates nothing. *)
let owner_window t data ~off ~len = owner_of_hash t (hash_window data ~off ~len)

let owner t key =
  owner_window t (Bytes.unsafe_of_string key) ~off:0 ~len:(String.length key)

let add_shard t shard =
  if Array.exists (fun s -> s = shard) t.shards then t
  else create ~vnodes:t.vnodes (shard :: Array.to_list t.shards)

let remove_shard t shard =
  let rest = List.filter (fun s -> s <> shard) (Array.to_list t.shards) in
  if List.length rest = Array.length t.shards then t else create ~vnodes:t.vnodes rest

(* Ownership census over a key universe — the balance diagnostic the
   QCheck properties and the hot-shard report both read. *)
let census t keys =
  let counts = Hashtbl.create (Array.length t.shards) in
  Array.iter (fun s -> Hashtbl.replace counts s 0) t.shards;
  List.iter
    (fun k ->
      let s = owner t k in
      Hashtbl.replace counts s (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)))
    keys;
  Array.to_list (Array.map (fun s -> (s, Hashtbl.find counts s)) t.shards)

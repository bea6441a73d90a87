(* Per-shard population plans.

   A plan is pure data — (rank, size) pairs for the keys a shard owns —
   so computing the N plans is embarrassingly parallel and runs on the
   [Par.Pool] worker domains (the ring is immutable; sizes come from
   rank-indexed RNG streams). Installing a plan touches pinned pools and
   the store, which are single-domain structures, so installation stays
   on the submitting domain. This split is the pattern StatCheck's
   domain-race pass polices: closures handed to the pool may capture
   immutable routing state, never a live shard.

   Sizes are a function of (seed, rank) alone — independent of the shard
   count — so clusters of different widths hold byte-identical data and
   the scaling curve compares like with like. *)

type item = { rank : int; size : int }

let key_of rank = Workload.Spec.padded_key ~prefix:"cl:" ~width:16 rank

let min_value = 16

(* The cap keeps a worst-case assembled multi-get (mget_batch values plus
   framing) inside the datagram transport's max payload: fan-out must
   work identically over UDP and TCP, so the dispatcher never has to
   segment a response. *)
let max_value = 2048

(* Lognormal value sizes (Twitter-cache-like shape), clipped to the pool
   classes a shard provisions. One draw from a rank-indexed stream. *)
let size_of ~seed rank =
  let rng = Sim.Rng.stream ~seed ~index:rank in
  let s = int_of_float (Sim.Dist.lognormal rng ~mu:5.4 ~sigma:1.1) in
  if s < min_value then min_value else if s > max_value then max_value else s

let for_shard ~ring ~shard ~n_keys ~seed =
  let acc = ref [] in
  for rank = n_keys downto 1 do
    if Ring.owner ring (key_of rank) = shard then
      acc := { rank; size = size_of ~seed rank } :: !acc
  done;
  !acc

(* All shards' plans, fanned across the worker domains. Results come back
   in shard order regardless of pool width; nested under an experiment
   job this degrades to inline execution — the same serial semantics. *)
let for_shards ~ring ~n_keys ~seed shard_ids =
  Par.Pool.map_list (fun shard -> for_shard ~ring ~shard ~n_keys ~seed) shard_ids

(* Pool classes for a shard: what its plan needs, plus headroom in every
   class for put churn (allocate-and-swap briefly doubles a value). *)
let pool_classes items =
  let classes = [ 64; 128; 256; 512; 1024; 2048; 4096 ] in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun { size; _ } ->
      let c = Workload.Spec.class_of size in
      Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)))
    items;
  List.map
    (fun c ->
      let n = Option.value ~default:0 (Hashtbl.find_opt counts c) in
      (c, n + (n / 4) + 128))
    classes

(* The preload runs off-core, unmetered. *)
let install items shard =
  let pool = Shard.pool shard and store = Shard.store shard in
  let cpu = Memmodel.Cpu.none in
  List.iter
    (fun { rank; size } ->
      let buf =
        Mem.Pinned.Buf.alloc ~cpu ~site:"Cluster.populate" pool ~len:size
      in
      Mem.Pinned.Buf.fill ~cpu ~site:"Cluster.populate" buf
        (Workload.Spec.filler size);
      Kvstore.Store.put_string ~cpu store ~key:(key_of rank)
        (Kvstore.Store.Single buf))
    items

(* StatCheck fixture: the cluster-scaling race the domain pass must catch.
   NOT part of the build — parsed by the analyzer only.

   One connection table — whose [with_stream] rehydrates per-connection
   RNG state through a single scratch cursor and bumps a shared issue
   counter — is built outside the fan-out and captured by every width's
   job. Parallel scaling configs would interleave cursor updates and the
   BENCH_cluster.json rows would depend on pool scheduling. The fix (and
   what exp_cluster does today) is building the table, like the topology,
   inside each job from a per-config seed. Expected: SC-PAR-CAPTURE. *)

let scaling_rows widths =
  let conns = Loadgen.Conns.create ~seed:1 131_072 in
  Util.par_map
    (fun shards ->
      let topo =
        Cluster.Topology.create ~seed:1 ~shards ~n_keys:32_768
          ~backend:(Apps.Backend.cornflakes ()) ()
      in
      Cluster.Topology.drive topo ~conns ~rate_rps:450_000.0
        ~duration_ns:5_000_000 ~warmup_ns:1_500_000)
    widths

(* Same race on the topology itself: one live cluster (engine, pinned
   pools, per-shard stores) served from every job. Expected:
   SC-PAR-CAPTURE. *)
let reuse_one_cluster rates =
  let topo =
    Cluster.Topology.create ~shards:4 ~n_keys:1_024
      ~backend:(Apps.Backend.cornflakes ()) ()
  in
  Par.Pool.map_list
    (fun rate ->
      let conns = Loadgen.Conns.create ~seed:2 1_024 in
      Cluster.Topology.drive topo ~conns ~rate_rps:rate
        ~duration_ns:5_000_000 ~warmup_ns:1_500_000)
    rates

(* Hand-rolled shared tally: per-shard served counts accumulated through
   one ref from every job. Expected: SC-PAR-MUT. *)
let total_served topos =
  let served = ref 0 in
  Par.Pool.map_list
    (fun topo ->
      let n = Cluster.Topology.per_shard_served topo in
      served := !served + List.fold_left ( + ) 0 n;
      n)
    topos

(* Figure 13: multicore scaling of the scatter-gather microbenchmark.
   N cores, each with its own store shard (2 x 512 B values, aggregate
   working set ~10x L3), sharing the L3 and one 100 Gbps NIC. Copy and raw
   scatter-gather should both scale linearly until the NIC line rate flattens
   the curves, with scatter-gather ~1.5x higher until the plateau. *)

let entry_size = 512

let entries = 2

let l3 = Memmodel.Params.default.Memmodel.Params.l3.Memmodel.Params.size_bytes

let core_counts = [ 1; 2; 4; 8 ]

let run_config ~cores path =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let shared_l3 = Memmodel.Cache.create Memmodel.Params.default.Memmodel.Params.l3 in
  let shared_nic =
    Nic.Device.create engine ~model:Nic.Model.mellanox_cx6
  in
  let total_keys = 10 * l3 / (entries * entry_size) in
  let keys_per_core = max 2048 (total_keys / cores) in
  let b = Util.budget () in
  let duration = b.Util.cap_ns and warmup = b.Util.warmup_ns in
  let completed = ref 0 and resp_bytes = ref 0 in
  for core = 0 to cores - 1 do
    let cpu = Memmodel.Cpu.create ~shared_l3 Memmodel.Params.default in
    let server_ep =
      Net.Endpoint.create ~cpu ~nic:shared_nic fabric registry ~id:(1 + core)
    in
    let server_tr = Net.Endpoint.transport server_ep in
    let server = Loadgen.Server.create server_tr in
    let rig : Apps.Rig.t =
      {
        Apps.Rig.engine;
        fabric;
        space;
        registry;
        cpu;
        server_ep;
        server_tr;
        server;
        clients = [];
        transport_kind = `Udp;
        rng = Sim.Rng.stream ~seed:42 ~index:core;
      }
    in
    let app =
      Micro.install rig path ~entries ~entry_size ~n_keys:keys_per_core
    in
    let d = Micro.driver app in
    (* Two closed-loop clients per core, wired inline so all cores run
       concurrently on the one engine. *)
    for c = 0 to 1 do
      let client =
        Net.Endpoint.create ~cpu:Memmodel.Cpu.none fabric registry
          ~id:(100 + (core * 10) + c)
      in
      let client_tr = Net.Endpoint.transport client in
      let issue () = d.Util.send client_tr ~dst:(1 + core) ~id:0 in
      Net.Endpoint.set_rx client (fun ~src:_ buf ->
          let now = Sim.Engine.now engine in
          if now >= warmup && now <= duration then begin
            incr completed;
            resp_bytes := !resp_bytes + Mem.Pinned.Buf.len buf
          end;
          Mem.Pinned.Buf.decr_ref ~cpu:Memmodel.Cpu.none buf;
          if now < duration then issue ());
      for k = 1 to 4 do
        Sim.Engine.schedule engine ~after:(k * 311) issue
      done
    done
  done;
  Sim.Engine.run_all engine;
  let window_s = float_of_int (duration - warmup) /. 1e9 in
  float_of_int (!resp_bytes * 8) /. window_s /. 1e9

let run () =
  let t =
    Stats.Table.create
      ~title:
        "Figure 13: multicore scaling, 2 x 512 B microbenchmark, shared L3 \
         + one 100G NIC (Gbps)"
      ~columns:[ "cores"; "copy"; "raw scatter-gather"; "sg/copy" ]
  in
  let cells =
    Util.par_map
      (Util.with_rig_life (fun (cores, path) -> run_config ~cores path))
      (List.concat_map
         (fun cores ->
           [ (cores, Micro.Copy_once); (cores, Micro.Raw_sg) ])
         core_counts)
  in
  List.iteri
    (fun i cores ->
      let copy = List.nth cells (2 * i) in
      let sg = List.nth cells ((2 * i) + 1) in
      Stats.Table.add_row t
        [
          string_of_int cores;
          Util.gbps copy;
          Util.gbps sg;
          Printf.sprintf "%.2f" (sg /. copy);
        ])
    core_counts;
  Stats.Table.print t;
  print_endline
    "  (paper: both scale linearly; SG starts at 16.8 Gbps and plateaus near\n\
    \   73.5 Gbps; copy is ~33% lower until both hit the NIC)"

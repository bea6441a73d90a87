(* Cluster topology: N shards + a front-end dispatcher tier + client
   endpoints, wired over one deterministic engine/fabric. Shards model
   the shared-nothing OCaml 5 domains of a real deployment — each owns
   its CPU, pool, and store, and nothing else reaches them — while the
   simulation itself stays single-threaded per job, so `--jobs`
   parallelism (which fans whole topologies across the Par.Pool) cannot
   perturb results.

   The front end defaults to a single dispatcher; deployments that scale
   the data tier scale the routing tier with it (a lone router core
   serves 1+G messages per request and would cap any cluster), so
   [~dispatchers] widens the tier and each connection is pinned to one
   dispatcher for its lifetime — FIFO per connection, like a real L4
   spray.

   Endpoint id map: shards 1..n, dispatchers 90..97, clients 100+. A
   dispatcher demultiplexes its one rx path by source id: shard sources
   are partial responses, everything else is a client request. *)

type t = {
  engine : Sim.Engine.t;
  fabric : Net.Fabric.t;
  space : Mem.Addr_space.t;
  registry : Mem.Registry.t;
  kind : Apps.Rig.transport_kind;
  backend : Apps.Backend.t;
  ring : Ring.t;
  shards : Shard.t array;
  dispatchers : Dispatcher.t array;
  clients : Net.Transport.t list;
  rng : Sim.Rng.t;
  zipf : Sim.Dist.Zipf.t;
  n_keys : int;
  plan_seed : int;
  req_scratch : Wire.Dyn.t;
  (* Client-side response reader. Per topology, not global: experiments
     run topologies on several domains at once. *)
  resp_reader : Wire.Reader.t;
  mget_batch : int;
  mget_fraction : float;
  put_fraction : float;
}

let dispatcher_id = 90

let client_base = 100

let create ?transport ?seed ?(n_clients = 8) ?(dispatchers = 1)
    ?(vnodes = 128) ?(queue_limit = 1_000_000) ?(zipf_s = 0.99)
    ?(mget_batch = 4) ?(mget_fraction = 0.5) ?(put_fraction = 0.05) ~shards:n
    ~n_keys ~backend () =
  if n < 1 then invalid_arg "Topology.create: shards < 1";
  (* Dispatchers and shards read requests in place: Cornflakes frames only. *)
  if Option.is_some backend.Apps.Backend.recv then
    invalid_arg "Topology.create: the cluster needs the Cornflakes wire format";
  if dispatchers < 1 || dispatchers > client_base - dispatcher_id then
    invalid_arg "Topology.create: dispatchers out of range";
  let seed = match seed with Some s -> s | None -> Apps.Rig.default_seed () in
  let kind =
    match transport with Some k -> k | None -> Apps.Rig.default_transport ()
  in
  let engine = Sim.Engine.create () in
  if Sanitizer.Refsan.is_enabled () then
    Sim.Engine.add_quiesce_hook engine (fun () ->
        Sanitizer.Report.print_quiesce ());
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let shared_l3 =
    Memmodel.Cache.create Memmodel.Params.default.Memmodel.Params.l3
  in
  let shard_ids = List.init n (fun i -> i + 1) in
  let ring = Ring.create ~vnodes shard_ids in
  let plan_seed = seed lxor 0x5eed in
  (* Population plans in parallel on the worker domains; installation —
     pinned pools, stores — serial on this one. *)
  let plans = Plan.for_shards ~ring ~n_keys ~seed:plan_seed shard_ids in
  let shards =
    Array.of_list
      (List.map2
         (fun sid items ->
           Shard.create ~fabric ~registry ~space ~shared_l3 ~kind ~backend
             ~queue_limit ~index:(sid - 1) ~id:sid
             ~pool_classes:(Plan.pool_classes items)
             ~store_capacity:(List.length items + 64))
         shard_ids plans)
  in
  List.iteri (fun i items -> Plan.install items shards.(i)) plans;
  let dispatchers =
    Array.init dispatchers (fun i ->
        Dispatcher.create ~fabric ~registry ~kind ~backend ~queue_limit
          ~id:(dispatcher_id + i) ~ring ~shard_ids)
  in
  let clients =
    List.init n_clients (fun i ->
        Apps.Rig.transport_for ~kind
          (Net.Endpoint.create ~cpu:Memmodel.Cpu.none fabric registry
             ~id:(client_base + i)))
  in
  (* Every client endpoint may carry traffic for any dispatcher (the
     connection table multiplexes over them), so open the full mesh up
     front — on TCP this fixes the handshake order under any seed. *)
  List.iter
    (fun c ->
      Array.iter
        (fun d -> Net.Transport.connect c ~peer:(Dispatcher.id d))
        dispatchers)
    clients;
  {
    engine;
    fabric;
    space;
    registry;
    kind;
    backend;
    ring;
    shards;
    dispatchers;
    clients;
    rng = Sim.Rng.create ~seed;
    zipf = Sim.Dist.Zipf.create ~n:n_keys ~s:zipf_s;
    n_keys;
    plan_seed;
    req_scratch = Wire.Dyn.create Apps.Proto.req;
    resp_reader = Wire.Reader.create Apps.Proto.resp;
    mget_batch;
    mget_fraction;
    put_fraction;
  }

(* --- Client side (uncharged, mirrors Kv_app) --------------------------- *)

let append_key t msg rank =
  Wire.Dyn.append_payload_at msg Apps.Proto.req_keys
    (Wire.Payload.of_string t.space (Plan.key_of rank))

(* Draw one request from a connection's private stream and send it. The op
   mix and Zipf key popularity are functions of that stream alone. *)
let gen_and_send t crng client ~dst ~id =
  let msg = t.req_scratch in
  Wire.Dyn.clear msg;
  Wire.Dyn.set_int_of_int msg Apps.Proto.req_id id;
  let u = Sim.Rng.float crng in
  if u < t.put_fraction then begin
    let rank = Sim.Dist.Zipf.sample t.zipf crng in
    Wire.Dyn.set_int_at msg Apps.Proto.req_op Apps.Proto.op_put;
    append_key t msg rank;
    Wire.Dyn.append_payload_at msg Apps.Proto.req_vals
      (Wire.Payload.of_string t.space
         (Workload.Spec.filler (Plan.size_of ~seed:t.plan_seed rank)))
  end
  else begin
    Wire.Dyn.set_int_at msg Apps.Proto.req_op Apps.Proto.op_get;
    let batch =
      if u < t.put_fraction +. t.mget_fraction then t.mget_batch else 1
    in
    for _ = 1 to batch do
      append_key t msg (Sim.Dist.Zipf.sample t.zipf crng)
    done
  end;
  t.backend.Apps.Backend.send client ~dst msg;
  (* Client-side arenas hold per-request copies; recycle them. *)
  Mem.Arena.reset (Net.Transport.arena client)

(* The response's id, or -1 for a frame that fails validation. *)
let parse_id t buf =
  let id =
    match Wire.Reader.validate t.resp_reader buf with
    | exception Wire.Reader.Invalid _ -> -1
    | () ->
        Wire.Reader.get_int_or t.resp_reader Apps.Proto.resp_id ~default:(-1)
  in
  List.iter (fun c -> Mem.Arena.reset (Net.Transport.arena c)) t.clients;
  id

let drive t ~conns ~rate_rps ~duration_ns ~warmup_ns =
  let n_disp = Array.length t.dispatchers in
  Loadgen.Driver.open_loop_conns t.engine ~conns ~clients:t.clients
    ~server:dispatcher_id ~rate_rps ~duration_ns ~warmup_ns ~rng:t.rng
    ~send:(fun ~conn crng client ~dst:_ ~id ->
      (* Connection → dispatcher pinning: deterministic, and each client
         keeps a stable front-end like a connection-hashing L4 would. *)
      let dst = Dispatcher.id t.dispatchers.(conn mod n_disp) in
      gen_and_send t crng client ~dst ~id)
    ~parse_id:(fun buf -> parse_id t buf)

let per_shard_served t =
  Array.to_list (Array.map (fun s -> Shard.served s) t.shards)

let shard_list t = Array.to_list t.shards

let engine t = t.engine

let fabric t = t.fabric

let registry t = t.registry

let kind t = t.kind

let ring t = t.ring

let dispatcher t = t.dispatchers.(0)

let dispatcher_list t = Array.to_list t.dispatchers

let clients t = t.clients

let n_keys t = t.n_keys

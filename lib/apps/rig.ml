type transport_kind = [ `Udp | `Tcp ]

type t = {
  engine : Sim.Engine.t;
  fabric : Net.Fabric.t;
  space : Mem.Addr_space.t;
  registry : Mem.Registry.t;
  cpu : Memmodel.Cpu.t;
  server_ep : Net.Endpoint.t;
  server_tr : Net.Transport.t;
  server : Loadgen.Server.t;
  clients : Net.Transport.t list;
  transport_kind : transport_kind;
  rng : Sim.Rng.t;
}

let server_id = 1

(* Process-wide default datapath ([`Udp] unless the CLI's --transport flag
   raises it); [create ?transport] overrides per rig. *)
let transport_ref : transport_kind Atomic.t = Atomic.make `Udp

let set_default_transport k = Atomic.set transport_ref k

let default_transport () = Atomic.get transport_ref

let transport_kind_name = function `Udp -> "udp" | `Tcp -> "tcp"

(* The datapath choice is a per-endpoint view: UDP uses the endpoint's
   cached transport; TCP attaches a stack over the endpoint's receive
   path (connections open lazily, or explicitly during warmup via
   [Transport.connect]). Shared with multi-endpoint topologies (lib/cluster)
   that build their own endpoint sets. *)
let transport_for ~kind ep =
  match kind with
  | `Udp -> Net.Endpoint.transport ep
  | `Tcp -> Tcp.transport (Tcp.Stack.attach ep)

(* Process-wide seed used when [create] is not given ?seed explicitly; the
   bench harness's --seed flag sets it so whole experiment runs replay. *)
(* Atomic: the harness sets it once at startup; worker domains read it. *)
let seed_ref = Atomic.make 0xc0ffee

let set_default_seed s = Atomic.set seed_ref s

let default_seed () = Atomic.get seed_ref

let create ?(params = Memmodel.Params.default) ?shared_l3 ?nic_model
    ?(n_clients = 16) ?seed ?transport () =
  let seed = match seed with Some s -> s | None -> Atomic.get seed_ref in
  let transport_kind =
    match transport with Some k -> k | None -> Atomic.get transport_ref
  in
  let engine = Sim.Engine.create () in
  (* Under RefSan, every rig reports leaks when its event queue drains. *)
  if Sanitizer.Refsan.is_enabled () then
    Sim.Engine.add_quiesce_hook engine (fun () ->
        Sanitizer.Report.print_quiesce ());
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let cpu = Memmodel.Cpu.create ?shared_l3 params in
  let server_ep =
    Net.Endpoint.create ~cpu ?nic_model fabric registry ~id:server_id
  in
  let as_transport ep = transport_for ~kind:transport_kind ep in
  let server_tr = as_transport server_ep in
  let server = Loadgen.Server.create server_tr in
  let clients =
    List.init n_clients (fun i ->
        as_transport
          (Net.Endpoint.create ~cpu:Memmodel.Cpu.none fabric registry
             ~id:(100 + i)))
  in
  {
    engine;
    fabric;
    space;
    registry;
    cpu;
    server_ep;
    server_tr;
    server;
    clients;
    transport_kind;
    rng = Sim.Rng.create ~seed;
  }

let endpoints t = t.server_ep :: List.map Net.Transport.endpoint t.clients

(* Recover every NIC's lost completions (releasing stuck ring slots,
   segment references, and RefSan holds); returns descriptors recovered.
   The reliability layer calls this periodically while requests are
   outstanding; harnesses call it once more before quiescing — the
   "driver shutdown reaps the TX ring" step. *)
let reap_lost t =
  List.fold_left
    (fun acc ep -> acc + Nic.Device.reap_lost (Net.Endpoint.nic ep))
    0 (endpoints t)

(* Wire a Faultline injector into every layer of the rig: the fabric
   consults it per packet, each NIC per CQE (scoped by endpoint id), the
   server per request slot, and arena-exhaustion windows are scheduled
   against the matching endpoints' arenas. *)
let inject_faults t inj =
  Net.Fabric.set_injector t.fabric (Some inj);
  List.iter
    (fun ep ->
      Nic.Device.set_completion_fault (Net.Endpoint.nic ep)
        (Some
           (fun ~now ->
             Faults.Injector.completion_decision inj ~now ~ep:(Net.Endpoint.id ep))))
    (endpoints t);
  Loadgen.Server.set_service_fault t.server
    (Some (fun ~now -> Faults.Injector.service_stall inj ~now ~ep:server_id));
  let now = Sim.Engine.now t.engine in
  List.iter
    (fun (scope, soft, from_ns, until_ns) ->
      let targets =
        List.filter
          (fun ep ->
            match scope with
            | Faults.Plan.Anywhere -> true
            | Faults.Plan.Endpoint e -> Net.Endpoint.id ep = e)
          (endpoints t)
      in
      List.iter
        (fun ep ->
          let arena = Net.Endpoint.arena ep in
          Sim.Engine.schedule t.engine ~after:(max 0 (from_ns - now)) (fun () ->
              Mem.Arena.set_soft_capacity arena (Some soft));
          if until_ns < max_int then
            Sim.Engine.schedule t.engine ~after:(max 0 (until_ns - now)) (fun () ->
                Mem.Arena.set_soft_capacity arena None))
        targets)
    (Faults.Injector.arena_windows inj)

let data_pool t ~name ~classes =
  let pool = Mem.Pinned.Pool.create t.space ~name ~classes in
  Mem.Registry.register t.registry pool;
  pool

let warm t ~requests ~send ~parse_id =
  if requests > 0 then begin
    let duration = max 1_000_000 (requests * 3_000) in
    let (_ : Loadgen.Driver.result) =
      Loadgen.Driver.closed_loop t.engine ~clients:[ List.hd t.clients ]
        ~server:server_id ~outstanding:4 ~duration_ns:duration ~warmup_ns:0
        ~rng:t.rng ~send ~parse_id
    in
    ()
  end

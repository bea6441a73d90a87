(** Experiment rig: one single-core server plus a fleet of client endpoints
    on a fabric, matching the paper's testbed topology (16-thread load
    generator against a one-core server, §6.1.1). *)

(** Which datapath the rig's transports ride: kernel-bypass UDP (buffers
    released at NIC completion) or the Demikernel-style TCP stack (buffers
    held until cumulative ACK). *)
type transport_kind = [ `Udp | `Tcp ]

type t = {
  engine : Sim.Engine.t;
  fabric : Net.Fabric.t;
  space : Mem.Addr_space.t;
  registry : Mem.Registry.t;
  cpu : Memmodel.Cpu.t;
  server_ep : Net.Endpoint.t;
  server_tr : Net.Transport.t;  (** the server endpoint as a transport *)
  server : Loadgen.Server.t;
  clients : Net.Transport.t list;
  transport_kind : transport_kind;
  rng : Sim.Rng.t;
}

val server_id : int

(** Seed used by [create] when [?seed] is absent (default [0xc0ffee]); the
    bench harness's [--seed] flag sets it for reproducible runs. *)
val set_default_seed : int -> unit

val default_seed : unit -> int

(** Datapath used by [create] when [?transport] is absent (default
    [`Udp]); the CLI's [--transport] flag sets it process-wide. *)
val set_default_transport : transport_kind -> unit

val default_transport : unit -> transport_kind

val transport_kind_name : transport_kind -> string

(** [transport_for ~kind ep] is the datapath view over an endpoint: UDP
    uses the endpoint's cached transport, TCP attaches a stack over its
    receive path. Multi-endpoint topologies (lib/cluster) build their
    shard/dispatcher/client transports through this, so both datapaths
    stay interchangeable everywhere. *)
val transport_for : kind:transport_kind -> Net.Endpoint.t -> Net.Transport.t

(** [create ()] builds the rig. [n_clients] defaults to 16; [seed] defaults
    to the [set_default_seed] value; [transport] to the
    [set_default_transport] value. With [`Tcp], every endpoint gets a
    [Tcp.Stack] attached and the rig's transports are its connections —
    handshakes run lazily on first send or eagerly via
    [Net.Transport.connect] (the load drivers connect during warmup). *)
val create :
  ?params:Memmodel.Params.t ->
  ?shared_l3:Memmodel.Cache.t ->
  ?nic_model:Nic.Model.t ->
  ?n_clients:int ->
  ?seed:int ->
  ?transport:transport_kind ->
  unit ->
  t

(** Server endpoint followed by every client endpoint. *)
val endpoints : t -> Net.Endpoint.t list

(** Wire a Faultline injector into every layer: fabric packets, NIC
    completions (scoped by endpoint id), server service slots, and
    arena-exhaustion windows. *)
val inject_faults : t -> Faults.Injector.t -> unit

(** Recover lost completions on every NIC ([Nic.Device.reap_lost]);
    returns descriptors recovered. Call before quiescing a faulted run. *)
val reap_lost : t -> int

(** [data_pool t ~name ~classes] makes a registered pinned pool for
    application data. *)
val data_pool :
  t -> name:string -> classes:(int * int) list -> Mem.Pinned.Pool.t

(** [warm t ~requests ~send ~parse_id] drives a short closed-loop burst to
    warm caches and pools before measurement. *)
val warm :
  t ->
  requests:int ->
  send:(Net.Transport.t -> dst:int -> id:int -> unit) ->
  parse_id:(Mem.Pinned.Buf.t -> int) option ->
  unit

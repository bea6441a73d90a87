(* Shared scaffolding for network-level tests: an engine, a fabric, a
   registry, and two endpoints, with a catcher that collects packets
   delivered to an endpoint. *)

type t = {
  engine : Sim.Engine.t;
  fabric : Net.Fabric.t;
  registry : Mem.Registry.t;
  space : Mem.Addr_space.t;
  a : Net.Endpoint.t; (* "client" side *)
  b : Net.Endpoint.t; (* "server" side *)
  received_at_b : (int * Mem.Pinned.Buf.t) Queue.t;
}

let make ?(cpu_b = Memmodel.Cpu.none) ?config () =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let a =
    Net.Endpoint.create ~cpu:Memmodel.Cpu.none ?config fabric registry ~id:1
  in
  let b = Net.Endpoint.create ~cpu:cpu_b ?config fabric registry ~id:2 in
  let received_at_b = Queue.create () in
  Net.Endpoint.set_rx b (fun ~src buf -> Queue.add (src, buf) received_at_b);
  { engine; fabric; registry; space; a; b; received_at_b }

(* Run the engine until all in-flight work drains, then pop the first packet
   received at [b]. *)
let catch env =
  Sim.Engine.run_all env.engine;
  match Queue.take_opt env.received_at_b with
  | Some (src, buf) -> (src, buf)
  | None -> Alcotest.fail "no packet delivered"

(* A pinned pool registered with the env's registry, for app data. *)
let data_pool ?(classes = [ (64, 256); (256, 256); (1024, 128); (4096, 64) ])
    env =
  let pool = Mem.Pinned.Pool.create env.space ~name:"data" ~classes in
  Mem.Registry.register env.registry pool;
  pool

let pinned_of_string pool s =
  let cpu = Memmodel.Cpu.none in
  let buf = Mem.Pinned.Buf.alloc ~cpu pool ~len:(String.length s) in
  Mem.Pinned.Buf.fill ~cpu buf s;
  buf

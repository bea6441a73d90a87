(* Quickstart: define a schema, build a message whose fields live in pinned
   memory, send it with the combined serialize-and-send API, and deserialize
   it zero-copy on the other side.

   Run with:  dune exec examples/quickstart.exe *)

let schema_text =
  {|
  syntax = "proto3";
  message Greeting {
    uint64 id = 1;
    string title = 2;
    repeated bytes chunks = 3;
  }
  |}

let () =
  (* 1. Compile the schema (at runtime here; the build compiles
        examples/kv.proto ahead of time into the Kv_msgs accessors). *)
  let schema = Schema.Parser.parse schema_text in
  let greeting = Schema.Desc.message schema "Greeting" in

  (* 2. Bring up the simulated machine: a fabric, pinned memory, and two
        endpoints — everything a kernel-bypass deployment would have. *)
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  (* No core is measured here: every charge goes to the unmetered meter. *)
  let cpu = Memmodel.Cpu.none in
  let alice = Net.Endpoint.create ~cpu fabric registry ~id:1 in
  let bob = Net.Endpoint.create ~cpu fabric registry ~id:2 in

  (* 3. Application data: one value in pinned (DMA-safe) memory, one on the
        ordinary heap. *)
  let pool =
    Mem.Pinned.Pool.create space ~name:"app" ~classes:[ (1024, 16); (4096, 16) ]
  in
  Mem.Registry.register registry pool;
  let big_value = Mem.Pinned.Buf.alloc ~cpu pool ~len:2600 in
  Mem.Pinned.Buf.fill ~cpu big_value (String.make 2600 'Z');
  let small_value = Mem.View.of_string space "tiny" in

  (* 4. Build the message. CFPtr decides per field: the 2600-byte pinned
        field goes zero-copy (>= 512 B threshold); the 4-byte field is
        copied. No explicit serialize call exists. *)
  let config = Cornflakes.Config.default in
  let msg = Wire.Dyn.create greeting in
  Wire.Dyn.set_int msg "id" 1L;
  Wire.Dyn.set_string msg space "title" "hello, scatter-gather";
  Wire.Dyn.append msg "chunks"
    (Wire.Dyn.Payload
       (Cornflakes.Cf_ptr.make ~cpu config alice
          (Mem.Pinned.Buf.view big_value)));
  Wire.Dyn.append msg "chunks"
    (Wire.Dyn.Payload (Cornflakes.Cf_ptr.make ~cpu config alice small_value));
  let plan = Cornflakes.Format_.measure msg in
  Printf.printf "object: %d bytes total, %d gather entries (1 header+copied + %d zero-copy)\n"
    plan.Cornflakes.Format_.total_len
    (Cornflakes.Format_.num_entries plan)
    (Cornflakes.Format_.zc_count plan);

  (* 5. Send. The stack holds references on the zero-copy fields until the
        NIC completion fires — freeing [big_value] early would be caught. *)
  Net.Endpoint.set_rx bob (fun ~src buf ->
      let received = Cornflakes.Send.deserialize ~cpu schema greeting buf in
      Printf.printf "bob received from %d: id=%Ld title=%S chunks=[%s]\n" src
        (Option.value ~default:0L (Wire.Dyn.get_int received "id"))
        (Option.fold ~none:"" ~some:Wire.Payload.to_string
           (Wire.Dyn.get_payload received "title"))
        (String.concat "; "
           (List.map
              (fun v ->
                match v with
                | Wire.Dyn.Payload p ->
                    Printf.sprintf "%d bytes" (Wire.Payload.len p)
                | _ -> "?")
              (Wire.Dyn.get_list received "chunks")));
      Wire.Dyn.release ~cpu received;
      Mem.Pinned.Buf.decr_ref ~cpu buf);
  Cornflakes.Send.send_object config alice ~dst:2 msg;
  Sim.Engine.run_all engine;
  Printf.printf "big value still owned by the app: refcount=%d\n"
    (Mem.Pinned.Buf.refcount big_value)

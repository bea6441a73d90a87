(* Segmentation demo (§3.2.3 extension): ship a 150 KB object — far beyond
   one jumbo frame — using the ranged CornflakesObj iterators. Large pinned
   fields are sliced zero-copy across frames; the receiver reassembles and
   deserializes as usual.

   Run with:  dune exec examples/large_object.exe *)

let schema_text =
  {|
  message Blob {
    uint64 id = 1;
    string label = 2;
    repeated bytes parts = 3;
  }
  |}

let () =
  let schema = Schema.Parser.parse schema_text in
  let blob = Schema.Desc.message schema "Blob" in
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  (* No core is measured here: every charge goes to the unmetered meter. *)
  let cpu = Memmodel.Cpu.none in
  let alice = Net.Endpoint.create ~cpu fabric registry ~id:1 in
  let bob = Net.Endpoint.create ~cpu fabric registry ~id:2 in
  let pool =
    Mem.Pinned.Pool.create space ~name:"blobs" ~classes:[ (65536, 8) ]
  in
  Mem.Registry.register registry pool;

  (* A 150 KB object: three pinned 50 KB parts. *)
  let msg = Wire.Dyn.create blob in
  Wire.Dyn.set_int msg "id" 150L;
  Wire.Dyn.set_string msg space "label" "three 50 KB parts";
  for i = 1 to 3 do
    let part = Mem.Pinned.Buf.alloc ~cpu pool ~len:50_000 in
    Mem.Pinned.Buf.fill ~cpu part
      (String.make 50_000 (Char.chr (Char.code '0' + i)));
    Wire.Dyn.append msg "parts" (Wire.Dyn.Payload (Wire.Payload.Zero_copy part))
  done;
  Printf.printf "object is %d bytes; a jumbo frame carries %d\n"
    (Cornflakes.Obj_api.object_len msg)
    Net.Packet.max_payload;

  let segmenter = Cornflakes.Segment.Segmenter.create alice in
  let reassembler = Cornflakes.Segment.Reassembler.create registry in
  Net.Endpoint.set_rx bob (fun ~src buf ->
      Cornflakes.Segment.Reassembler.on_packet ~cpu reassembler ~src buf
        ~deliver:(fun ~src:_ obj ->
          let back = Cornflakes.Send.deserialize ~cpu schema blob obj in
          Printf.printf "bob reassembled id=%Ld %S with parts [%s]\n"
            (Option.value ~default:0L (Wire.Dyn.get_int back "id"))
            (Option.fold ~none:"" ~some:Wire.Payload.to_string
               (Wire.Dyn.get_payload back "label"))
            (String.concat "; "
               (List.map
                  (fun v ->
                    match v with
                    | Wire.Dyn.Payload p ->
                        Printf.sprintf "%d x '%c'" (Wire.Payload.len p)
                          (Wire.Payload.to_string p).[0]
                    | _ -> "?")
                  (Wire.Dyn.get_list back "parts")));
          Wire.Dyn.release ~cpu back;
          Mem.Pinned.Buf.decr_ref ~cpu obj));
  Cornflakes.Segment.Segmenter.send segmenter ~dst:2 msg;
  Sim.Engine.run_all engine;
  Printf.printf "frames on the wire: %d\n" (Net.Endpoint.tx_packets alice)

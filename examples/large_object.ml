(* Segmentation demo (§3.2.3 extension): ship a 150 KB object — far beyond
   one jumbo frame — using the ranged CornflakesObj iterators. Large pinned
   fields are sliced zero-copy across frames; the receiver reassembles and
   reads the object in place as usual.

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
    (Obj_api.object_len msg)
    Net.Packet.max_payload;

  let segmenter = Segment.Segmenter.create alice in
  let reassembler = Segment.Reassembler.create registry in
  let back = Wire.Reader.create ~cpu blob in
  let field = Schema.Desc.field_index blob in
  Net.Endpoint.set_rx bob (fun ~src buf ->
      Segment.Reassembler.on_packet ~cpu reassembler ~src buf
        ~deliver:(fun ~src:_ obj ->
          Wire.Reader.validate back obj;
          let parts = Wire.Reader.count_or_zero back (field "parts") in
          Printf.printf "bob reassembled id=%Ld %S with parts [%s]\n"
            (Wire.Reader.get_u64_or back (field "id") ~default:0L)
            (Wire.Reader.payload_string back (field "label"))
            (String.concat "; "
               (List.init parts (fun j ->
                    let v = Wire.Reader.elem_view back (field "parts") ~j in
                    Printf.sprintf "%d x '%c'" v.Mem.View.len
                      (Bytes.get v.Mem.View.data v.Mem.View.off))));
          Mem.Pinned.Buf.decr_ref ~cpu obj));
  Segment.Segmenter.send segmenter ~dst:2 msg;
  Sim.Engine.run_all engine;
  Printf.printf "frames on the wire: %d\n" (Net.Endpoint.tx_packets alice)

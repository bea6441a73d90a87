(* Fuzzing the deserializers: arbitrary bytes must either decode or raise
   the decoder's own error — never crash, loop, or recurse unboundedly.
   (Nested offsets in the zero-copy formats could otherwise form cycles;
   the depth limits bound them.) *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

let schema = Test_format.schema

let everything = Test_format.everything

let make_buf bytes =
  let space = Mem.Addr_space.create () in
  let pool =
    Mem.Pinned.Pool.create space ~name:"fuzz"
      ~classes:[ (Workload.Spec.class_of (max 1 (String.length bytes)), 4) ]
  in
  let buf =
    Mem.Pinned.Buf.alloc ~cpu:none pool ~len:(max 1 (String.length bytes))
  in
  Mem.Pinned.Buf.fill ~cpu:none buf bytes;
  if String.length bytes > 0 && String.length bytes < Mem.Pinned.Buf.len buf
  then Mem.Pinned.Buf.sub buf ~off:0 ~len:(String.length bytes)
  else buf

let gen_bytes rng =
  let len = Sim.Rng.int rng 600 in
  String.init len (fun _ -> Char.chr (Sim.Rng.int rng 256))

(* Mutate a valid serialized object: flip a few bytes. *)
let gen_mutated rng =
  let env = Test_format.make_env () in
  let msg = Test_format.gen_message env rng in
  let _plan, buf = Test_format.serialize env msg in
  let v = Mem.Pinned.Buf.view buf in
  let s = Bytes.of_string (Mem.View.to_string v) in
  for _ = 0 to 4 do
    if Bytes.length s > 0 then
      Bytes.set s
        (Sim.Rng.int rng (Bytes.length s))
        (Char.chr (Sim.Rng.int rng 256))
  done;
  Bytes.to_string s

let fuzz_one name decode =
  QCheck.Test.make ~name ~count:300 QCheck.small_nat (fun seed ->
      let rng = Sim.Rng.create ~seed:(seed * 31 + 5) in
      let bytes =
        if Sim.Rng.bool rng 0.5 then gen_bytes rng else gen_mutated rng
      in
      let buf = make_buf bytes in
      match decode buf with
      | _ -> true
      | exception Cornflakes.Format_.Malformed _ -> true
      | exception Baselines.Flatbuf.Decode_error _ -> true
      | exception Baselines.Capnp.Decode_error _ -> true
      | exception Baselines.Protobuf.Decode_error _ -> true
      | exception Mini_redis.Resp.Protocol_error _ -> true
      | exception Invalid_argument _ ->
          (* Cursor bound violations surface as Invalid_argument. *)
          true)

let with_ep f =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let ep = Net.Endpoint.create ~cpu:none fabric registry ~id:1 in
  let r = f ep in
  Mem.Arena.reset (Net.Endpoint.arena ep);
  r

let suite =
  [
    QCheck_alcotest.to_alcotest
      (fuzz_one "fuzz cornflakes deserialize" (fun buf ->
           ignore (Cornflakes.Format_.deserialize ~cpu:none schema everything buf)));
    QCheck_alcotest.to_alcotest
      (fuzz_one "fuzz flatbuffers deserialize" (fun buf ->
           ignore (Baselines.Flatbuf.deserialize ~cpu:none schema everything buf)));
    QCheck_alcotest.to_alcotest
      (fuzz_one "fuzz capnp deserialize" (fun buf ->
           ignore (Baselines.Capnp.deserialize ~cpu:none schema everything buf)));
    QCheck_alcotest.to_alcotest
      (fuzz_one "fuzz protobuf deserialize" (fun buf ->
           with_ep (fun ep ->
               ignore (Baselines.Protobuf.deserialize ~cpu:none ep schema everything buf))));
    QCheck_alcotest.to_alcotest
      (fuzz_one "fuzz resp decode" (fun buf ->
           ignore (Mini_redis.Resp.decode ~cpu:none (Mem.Pinned.Buf.view buf))));
  ]

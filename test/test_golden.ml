(* Golden frames: a fixed-seed corpus of messages over every field kind —
   absent fields, empty and full repeated fields, nested and repeated
   nested messages, copied/literal/zero-copy payloads, and a message wider
   than one bitmap word — serialized by the generic writer and by the
   generated folded writer of [Golden_msgs]. The concatenated frames are
   digested; the digest was recorded from the Option-slot message
   representation, so any drift of the wire bytes shows up here. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

let golden_digest = "dd00a502b17c01cd599e5348a879d80b"

let space = Mem.Addr_space.create ()

let pool =
  Mem.Pinned.Pool.create space ~name:"golden"
    ~classes:[ (64, 1024); (1024, 1024); (65536, 8) ]

let arena = Mem.Arena.create space ~capacity:(1 lsl 22)

let gen_string rng n =
  String.init n (fun i -> Char.chr (((i * 13) + Sim.Rng.int rng 95 + 32) land 0x7f))

let gen_payload rng =
  let s = gen_string rng (Sim.Rng.int rng 700) in
  match Sim.Rng.int rng 3 with
  | 0 -> Wire.Payload.Literal (Mem.View.of_string space s)
  | 1 -> Wire.Payload.Copied (Mem.Arena.copy_in ~cpu:none arena (Mem.View.of_string space s))
  | _ ->
      let s = if s = "" then "z" else s in
      let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:(String.length s) in
      Mem.Pinned.Buf.fill ~cpu:none buf s;
      Wire.Payload.Zero_copy buf

let child_desc = Schema.Desc.message Golden_msgs.schema "Child"

let gen_child rng ~p =
  let c = Wire.Dyn.create child_desc in
  if Sim.Rng.bool rng p then Wire.Dyn.set_int c "seq" (Sim.Rng.next_int64 rng);
  if Sim.Rng.bool rng p then Wire.Dyn.set_payload c "blob" (gen_payload rng);
  c

let gen_value rng ~p (f : Schema.Desc.field) =
  match f.Schema.Desc.ty with
  | Schema.Desc.Scalar Schema.Desc.Float64 -> Wire.Dyn.Float (Sim.Rng.float rng)
  | Schema.Desc.Scalar Schema.Desc.Bool ->
      Wire.Dyn.Int (if Sim.Rng.bool rng 0.5 then 1L else 0L)
  | Schema.Desc.Scalar _ -> Wire.Dyn.Int (Sim.Rng.next_int64 rng)
  | Schema.Desc.Str | Schema.Desc.Bytes -> Wire.Dyn.Payload (gen_payload rng)
  | Schema.Desc.Message _ -> Wire.Dyn.Nested (gen_child rng ~p)

(* Each field is present with probability [p]; a present repeated field
   holds 0-3 elements. *)
let gen_message rng desc ~p =
  let msg = Wire.Dyn.create desc in
  Array.iter
    (fun (f : Schema.Desc.field) ->
      if Sim.Rng.bool rng p then
        let name = f.Schema.Desc.field_name in
        match f.Schema.Desc.label with
        | Schema.Desc.Singular -> Wire.Dyn.set msg name (gen_value rng ~p f)
        | Schema.Desc.Repeated ->
            let n = Sim.Rng.int rng 4 in
            if n = 0 then Wire.Dyn.set msg name (Wire.Dyn.List [])
            else
              for _ = 1 to n do
                let v = gen_value rng ~p f in
                Wire.Dyn.append msg name v
              done)
    desc.Schema.Desc.fields;
  msg

(* The whole object as the wire sees it: header and copied region from the
   writer, then the zero-copy payloads in gather order. *)
let frame ?write msg =
  let plan = Cornflakes.Format_.measure msg in
  let contiguous =
    plan.Cornflakes.Format_.header_len + plan.Cornflakes.Format_.stream_len
  in
  let data = Bytes.make plan.Cornflakes.Format_.total_len '\000' in
  let w =
    Wire.Cursor.Writer.create ~cpu:none
      (Mem.View.make ~addr:0 ~data ~off:0 ~len:contiguous)
  in
  (match write with
  | None -> Cornflakes.Format_.write plan w msg
  | Some f -> Cornflakes.Format_.run plan w msg ~write:f);
  let off = ref contiguous in
  Cornflakes.Format_.iter_zc plan (fun zb ->
      Mem.Pinned.Buf.blit_to zb ~dst:data ~dst_off:!off;
      off := !off + Mem.Pinned.Buf.len zb);
  Bytes.to_string data

let presences = [| 1.0; 0.85; 0.6; 0.3; 0.0 |]

(* (generic frame, folded frame) for the whole corpus; each message's
   zero-copy references are dropped once it is framed. *)
let corpus () =
  let rng = Sim.Rng.create ~seed:2024 in
  let out = ref [] in
  let add desc ~write ~p =
    let msg = gen_message rng desc ~p in
    out := (frame msg, frame ~write msg) :: !out;
    Wire.Dyn.release ~cpu:none msg
  in
  for k = 0 to 39 do
    let p = presences.(k mod Array.length presences) in
    add Golden_msgs.All.desc ~write:Golden_msgs.All.write_folded ~p;
    add Golden_msgs.Child.desc ~write:Golden_msgs.Child.write_folded ~p;
    if k < 15 then add Golden_msgs.Wide.desc ~write:Golden_msgs.Wide.write_folded ~p
  done;
  List.rev !out

let test_golden_frames () =
  let frames = corpus () in
  let all = Buffer.create 65536 in
  List.iter
    (fun (generic, folded) ->
      Alcotest.(check string) "folded = generic" generic folded;
      Buffer.add_string all generic)
    frames;
  Alcotest.(check string)
    "corpus digest" golden_digest
    (Digest.to_hex (Digest.string (Buffer.contents all)));
  Alcotest.(check int) "zero-copy payloads all released" 0
    (Mem.Pinned.Pool.live pool)

(* --- by-name vs by-index builds ------------------------------------------ *)

(* What one field of a generated message holds. *)
type spec = One of Wire.Dyn.value | Many of Wire.Dyn.value list

let gen_specs rng desc ~p =
  let specs = ref [] in
  Array.iteri
    (fun i (f : Schema.Desc.field) ->
      if Sim.Rng.bool rng p then
        match f.Schema.Desc.label with
        | Schema.Desc.Singular -> specs := (i, One (gen_value rng ~p f)) :: !specs
        | Schema.Desc.Repeated ->
            let n = Sim.Rng.int rng 4 in
            let vs = List.init n (fun _ -> gen_value rng ~p f) in
            specs := (i, Many vs) :: !specs)
    desc.Schema.Desc.fields;
  List.rev !specs

let build_by_name desc specs =
  let m = Wire.Dyn.create desc in
  List.iter
    (fun (i, spec) ->
      let name = desc.Schema.Desc.fields.(i).Schema.Desc.field_name in
      match spec with
      | One v -> Wire.Dyn.set m name v
      | Many vs -> Wire.Dyn.set m name (Wire.Dyn.List vs))
    specs;
  m

let store_at m i (v : Wire.Dyn.value) ~repeated =
  match (v, repeated) with
  | Wire.Dyn.Int x, false -> Wire.Dyn.set_int_at m i x
  | Wire.Dyn.Float x, false -> Wire.Dyn.set_float_at m i x
  | Wire.Dyn.Payload p, false -> Wire.Dyn.set_payload_at m i p
  | Wire.Dyn.Nested c, false -> Wire.Dyn.set_nested_at m i c
  | Wire.Dyn.Int x, true -> Wire.Dyn.append_int_at m i x
  | Wire.Dyn.Float x, true -> Wire.Dyn.append_float_at m i x
  | Wire.Dyn.Payload p, true -> Wire.Dyn.append_payload_at m i p
  | Wire.Dyn.Nested c, true -> Wire.Dyn.append_nested_at m i c
  | Wire.Dyn.List _, _ -> invalid_arg "store_at: list"

let build_by_index desc specs =
  let m = Wire.Dyn.create desc in
  List.iter
    (fun (i, spec) ->
      match spec with
      | One v -> store_at m i v ~repeated:false
      | Many vs ->
          Wire.Dyn.touch_list m i;
          List.iter (fun v -> store_at m i v ~repeated:true) vs)
    specs;
  m

(* The frame in a pinned receive buffer, parsed back by the Dyn oracle. *)
let parse_back desc frame_bytes =
  let buf =
    Mem.Pinned.Buf.alloc ~cpu:none pool ~len:(max 1 (String.length frame_bytes))
  in
  Mem.Pinned.Buf.fill ~cpu:none buf frame_bytes;
  let buf =
    if String.length frame_bytes = Mem.Pinned.Buf.len buf then buf
    else Mem.Pinned.Buf.sub buf ~off:0 ~len:(String.length frame_bytes)
  in
  let back =
    Cornflakes.Format_.deserialize ~cpu:none Golden_msgs.schema desc buf
  in
  (back, buf)

let qcheck_by_name_equals_by_index =
  QCheck.Test.make ~name:"by-name build = by-index build, and parses back"
    ~count:200 QCheck.small_nat (fun seed ->
      let rng = Sim.Rng.create ~seed:(seed + 77) in
      let desc =
        match seed mod 3 with
        | 0 -> Golden_msgs.All.desc
        | 1 -> Golden_msgs.Wide.desc
        | _ -> Golden_msgs.Child.desc
      in
      let specs = gen_specs rng desc ~p:(Sim.Rng.float rng) in
      let by_name = build_by_name desc specs in
      let by_index = build_by_index desc specs in
      let f_name = frame by_name and f_index = frame by_index in
      let back, buf = parse_back desc f_name in
      let ok =
        Wire.Dyn.equal by_name by_index
        && String.equal f_name f_index
        && Wire.Dyn.equal back by_name
      in
      Wire.Dyn.release ~cpu:none back;
      Mem.Pinned.Buf.decr_ref ~cpu:none buf;
      Wire.Dyn.release ~cpu:none by_name;
      ok)


(* --- golden cost digest -------------------------------------------------- *)

(* A seeded kv run of a few thousand Twitter requests against the rig's
   server, over UDP and over TCP under a drop/reorder plan. The server
   meter's total and its per-category breakdown are digested bit for bit;
   the Cornflakes digests were recorded before the meter became an
   endpoint-owned value, so any drift of a simulated charge shows up here.
   Each baseline's digest covers both transports of the same run and was
   recorded while the baselines had their own copy of every kv handler. *)

let cost_digest_udp = "ca359cf88d0c43608bee16c8e41a6ebc"

let cost_digest_tcp = "5ab9429decb937d7b4fa051a63cada8c"

let cost_digest_baselines =
  [
    ("protobuf", "068e82ef607b09bcb5dbecec6e8503e3");
    ("flatbuffers", "41a3ab8701660da8e607cb87cded7b82");
    ("capnproto", "95186f0278b31f8319dad103b99f6964");
  ]

let cost_run ?(backend = Apps.Backend.cornflakes ()) ~transport ~lossy () =
  let rig = Apps.Rig.create ~seed:11 ~n_clients:2 ~transport () in
  let app =
    Apps.Kv_app.install rig ~backend
      ~workload:(Workload.Twitter.make ~n_keys:4096 ())
  in
  if lossy then begin
    let open Faults.Plan in
    let rule fault = { fault; schedule = Probability 0.002; scope = Anywhere } in
    Apps.Rig.inject_faults rig
      (Faults.Injector.create (make ~seed:5 [ rule Drop; rule Reorder ]))
  end;
  let r =
    Loadgen.Driver.open_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
      ~server:Apps.Rig.server_id ~rate_rps:1_000_000.0 ~duration_ns:3_000_000
      ~warmup_ns:0 ~rng:rig.Apps.Rig.rng
      ~send:(fun tr ~dst ~id -> Apps.Kv_app.send_next app tr ~dst ~id)
      ~parse_id:(Some (fun buf -> Apps.Kv_app.parse_id app buf))
  in
  let cpu = Loadgen.Server.cpu rig.Apps.Rig.server in
  let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f) in
  let text =
    String.concat " "
      (string_of_int (Loadgen.Server.served rig.Apps.Rig.server)
      :: bits (Memmodel.Cpu.cycles cpu)
      :: List.map (fun (_, c) -> bits c) (Memmodel.Cpu.breakdown cpu))
  in
  ( r.Loadgen.Driver.completed,
    Net.Fabric.dropped rig.Apps.Rig.fabric,
    Digest.to_hex (Digest.string text) )

let test_cost_digest () =
  let completed, _, udp = cost_run ~transport:`Udp ~lossy:false () in
  Alcotest.(check bool) "udp: thousands served" true (completed > 2000);
  Alcotest.(check string) "udp meter digest" cost_digest_udp udp;
  let completed, dropped, tcp = cost_run ~transport:`Tcp ~lossy:true () in
  Alcotest.(check bool) "tcp: thousands served" true (completed > 2000);
  Alcotest.(check bool) "tcp: the plan dropped packets" true (dropped > 0);
  Alcotest.(check string) "tcp meter digest" cost_digest_tcp tcp;
  List.iter
    (fun (name, digest) ->
      let backend = Apps.Backend.by_name name in
      let udp_done, _, udp = cost_run ~backend ~transport:`Udp ~lossy:false () in
      let tcp_done, _, tcp = cost_run ~backend ~transport:`Tcp ~lossy:true () in
      Alcotest.(check bool) (name ^ ": thousands served") true
        (udp_done > 2000 && tcp_done > 2000);
      Alcotest.(check string) (name ^ " meter digest") digest
        (Digest.to_hex (Digest.string (udp ^ " " ^ tcp))))
    cost_digest_baselines

(* --- golden cache hit levels ---------------------------------------------- *)

(* A seeded trace of 10^6 operations over a private hierarchy and a pair
   of hierarchies sharing one L3: single-line accesses that walk a cursor
   at mixed strides, hit a hot range, jump, or touch lines above 2^40,
   interleaved with DDIO installs. The level each access hits is digested
   per geometry; the digests were recorded from the stamp-LRU simulator,
   so any change to a simulated hit, miss or eviction shows up here. *)

let hit_digest_default = "06c6a9d7800b69994effe2e33b711065"

let hit_digest_odd_sets = "139895de84a595002dd35fc6fd0dd7a8"

(* 5, 15 and 60 sets: no level has a power-of-two set count. *)
let odd_sets =
  let level ~sets ~ways =
    { Memmodel.Params.size_bytes = sets * ways * 64; ways; line_bytes = 64 }
  in
  {
    Memmodel.Params.default with
    l1 = level ~sets:5 ~ways:2;
    l2 = level ~sets:15 ~ways:4;
    l3 = level ~sets:60 ~ways:8;
  }

let hit_trace ?(ops = 1_000_000) (p : Memmodel.Params.t) =
  let module H = Memmodel.Cache.Hierarchy in
  let rng = Sim.Rng.create ~seed:31 in
  let own = H.create p in
  let l3 = Memmodel.Cache.create p.Memmodel.Params.l3 in
  let left = H.create_shared p ~l3 and right = H.create_shared p ~l3 in
  let region = 4 * p.Memmodel.Params.l3.Memmodel.Params.size_bytes in
  let strides = [| 1; 8; 64; 72; 256; 4096 |] in
  let out = Buffer.create ops in
  let cursor = ref 0 in
  let record level =
    Buffer.add_char out
      (match level with
      | Memmodel.Cache.L1 -> '1'
      | Memmodel.Cache.L2 -> '2'
      | Memmodel.Cache.L3 -> '3'
      | Memmodel.Cache.Dram -> 'D')
  in
  for _ = 1 to ops do
    let h =
      match Sim.Rng.int rng 4 with 0 -> left | 1 -> right | _ -> own
    in
    match Sim.Rng.int rng 16 with
    | k when k < 9 ->
        cursor := (!cursor + strides.(Sim.Rng.int rng 6)) mod region;
        record (H.access_line h ~addr:!cursor)
    | k when k < 12 -> record (H.access_line h ~addr:(Sim.Rng.int rng 8192))
    | k when k < 14 ->
        cursor := Sim.Rng.int rng region;
        record (H.access_line h ~addr:!cursor)
    | 14 -> record (H.access_line h ~addr:((1 lsl 46) + Sim.Rng.int rng region))
    | _ ->
        H.install_l3 h ~addr:(Sim.Rng.int rng region)
          ~len:(1 + Sim.Rng.int rng 2048);
        Buffer.add_char out 'i'
  done;
  Digest.to_hex (Digest.string (Buffer.contents out))

let test_hit_levels () =
  Alcotest.(check string) "default geometry" hit_digest_default
    (hit_trace Memmodel.Params.default);
  Alcotest.(check string) "odd set counts" hit_digest_odd_sets
    (hit_trace odd_sets)

let suite =
  [
    Alcotest.test_case "golden frames, generic and folded" `Quick test_golden_frames;
    QCheck_alcotest.to_alcotest qcheck_by_name_equals_by_index;
    Alcotest.test_case "golden server meter, udp and lossy tcp" `Quick
      test_cost_digest;
    Alcotest.test_case "golden cache hit levels" `Quick test_hit_levels;
  ]

(* Wire-equivalence tests for the specialized (constant-folded) writer.

   Two angles:

   - A from-scratch reference serializer (plain [Bytes.t] stores, its own
     cursor arithmetic — independently reimplementing the wire layout the
     pre-specialization seeking writer produced) is byte-compared against
     [Format_.write] over random schemas and random messages. Any drift in
     the folded/wide runtime paths shows up as a byte diff.

   - A hand-transcribed folded writer callback — the exact shape
     [Codegen.Emit] generates — is run through [Format_.run] and compared
     against the generic writer for full presence (folded fast path) and
     partial presence (generic fallback). *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

type env = {
  space : Mem.Addr_space.t;
  pool : Mem.Pinned.Pool.t;
  arena : Mem.Arena.t;
}

let make_env () =
  let space = Mem.Addr_space.create () in
  let pool =
    Mem.Pinned.Pool.create space ~name:"spec"
      ~classes:[ (64, 64); (256, 64); (1024, 64); (4096, 32); (16384, 16) ]
  in
  { space; pool; arena = Mem.Arena.create space ~capacity:(1 lsl 16) }

let payload env flavour s =
  match flavour with
  | `Literal -> Wire.Payload.Literal (Mem.View.of_string env.space s)
  | `Copied ->
      Wire.Payload.Copied (Mem.Arena.copy_in ~cpu:none env.arena (Mem.View.of_string env.space s))
  | `Zero_copy ->
      let buf =
        Mem.Pinned.Buf.alloc ~cpu:none env.pool ~len:(max 1 (String.length s))
      in
      Mem.Pinned.Buf.fill ~cpu:none buf s;
      let buf =
        if String.length s = Mem.Pinned.Buf.len buf then buf
        else Mem.Pinned.Buf.sub buf ~off:0 ~len:(String.length s)
      in
      Wire.Payload.Zero_copy buf

let view_to_string (v : Mem.View.t) =
  Bytes.sub_string v.Mem.View.data v.Mem.View.off v.Mem.View.len

(* Serialize through the real path: header+stream via [Format_.write] (or a
   custom writer callback via [Format_.run]), zero-copy region appended from
   the plan's gather list — the full object as the wire sees it. *)
let real_serialize ?write env msg =
  let plan = Cornflakes.Format_.measure msg in
  let buf = Mem.Pinned.Buf.alloc ~cpu:none env.pool ~len:(max 1 plan.Cornflakes.Format_.total_len) in
  let contiguous =
    plan.Cornflakes.Format_.header_len + plan.Cornflakes.Format_.stream_len
  in
  let w =
    Wire.Cursor.Writer.create ~cpu:none
      (Mem.View.sub (Mem.Pinned.Buf.view buf) ~off:0 ~len:contiguous)
  in
  (match write with
  | None -> Cornflakes.Format_.write plan w msg
  | Some f -> Cornflakes.Format_.run plan w msg ~write:f);
  let off = ref contiguous in
  Cornflakes.Format_.iter_zc plan (fun zb ->
      Mem.Pinned.Buf.blit_from ~cpu:none buf ~src:(Mem.Pinned.Buf.view zb) ~dst_off:!off;
      off := !off + Mem.Pinned.Buf.len zb);
  view_to_string (Mem.Pinned.Buf.view buf)

(* --- Reference serializer -------------------------------------------- *)

let put32 b pos v =
  for i = 0 to 3 do
    Bytes.set b (pos + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let put64 b pos v =
  for i = 0 to 7 do
    Bytes.set b (pos + i)
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

let bitmap_words n = (n + 31) / 32

let header_block_len msg =
  let desc = Wire.Dyn.desc msg in
  4
  + (4 * bitmap_words (Array.length desc.Schema.Desc.fields))
  + (8 * Wire.Dyn.present_count msg)

(* Traversal-order measurement: stream bytes, zero-copy bytes (content
   strings, in order). *)
let rec ref_measure_value (stream, zc) (v : Wire.Dyn.value) =
  match v with
  | Wire.Dyn.Int _ | Wire.Dyn.Float _ -> (stream, zc)
  | Wire.Dyn.Payload (Wire.Payload.Zero_copy buf) ->
      (stream, zc @ [ view_to_string (Mem.Pinned.Buf.view buf) ])
  | Wire.Dyn.Payload (Wire.Payload.Copied v | Wire.Payload.Literal v) ->
      (stream + v.Mem.View.len, zc)
  | Wire.Dyn.Nested m -> ref_measure_msg (stream + header_block_len m, zc) m
  | Wire.Dyn.List elems ->
      List.fold_left ref_measure_value (stream + (8 * List.length elems), zc) elems

and ref_measure_msg acc msg =
  let acc = ref acc in
  Wire.Dyn.iter_present msg (fun _ _ v -> acc := ref_measure_value !acc v);
  !acc

type ref_cur = { mutable spos : int; mutable zpos : int }

let rec ref_write_msg b cur msg ~hpos =
  let desc = Wire.Dyn.desc msg in
  let nfields = Array.length desc.Schema.Desc.fields in
  let bw = bitmap_words nfields in
  put32 b hpos bw;
  for j = 0 to bw - 1 do
    let word = ref 0 in
    for i = 32 * j to min (nfields - 1) ((32 * j) + 31) do
      if Wire.Dyn.mem msg i then word := !word lor (1 lsl (i - (32 * j)))
    done;
    put32 b (hpos + 4 + (4 * j)) !word
  done;
  let slot_base = hpos + 4 + (4 * bw) in
  let k = ref 0 in
  Wire.Dyn.iter_present msg (fun _ _ v ->
      ref_write_value b cur v ~slot:(slot_base + (8 * !k));
      incr k)

and ref_write_value b cur (v : Wire.Dyn.value) ~slot =
  match v with
  | Wire.Dyn.Int value -> put64 b slot value
  | Wire.Dyn.Float f -> put64 b slot (Int64.bits_of_float f)
  | Wire.Dyn.Payload (Wire.Payload.Zero_copy buf) ->
      let len = Mem.Pinned.Buf.len buf in
      put32 b slot cur.zpos;
      put32 b (slot + 4) len;
      cur.zpos <- cur.zpos + len
  | Wire.Dyn.Payload (Wire.Payload.Copied v | Wire.Payload.Literal v) ->
      let s = view_to_string v in
      Bytes.blit_string s 0 b cur.spos (String.length s);
      put32 b slot cur.spos;
      put32 b (slot + 4) (String.length s);
      cur.spos <- cur.spos + String.length s
  | Wire.Dyn.Nested m ->
      let nh = header_block_len m in
      put32 b slot cur.spos;
      put32 b (slot + 4) nh;
      let hpos = cur.spos in
      cur.spos <- cur.spos + nh;
      ref_write_msg b cur m ~hpos
  | Wire.Dyn.List elems ->
      let count = List.length elems in
      let table = cur.spos in
      cur.spos <- cur.spos + (8 * count);
      put32 b slot table;
      put32 b (slot + 4) count;
      List.iteri
        (fun j elem -> ref_write_value b cur elem ~slot:(table + (8 * j)))
        elems

let ref_serialize msg =
  let header_len = header_block_len msg in
  let stream_len, zc = ref_measure_msg (0, []) msg in
  let zc_len = List.fold_left (fun a s -> a + String.length s) 0 zc in
  let total = header_len + stream_len + zc_len in
  let b = Bytes.make (max 1 total) '\000' in
  let cur = { spos = header_len; zpos = header_len + stream_len } in
  ref_write_msg b cur msg ~hpos:0;
  let off = ref (header_len + stream_len) in
  List.iter
    (fun s ->
      Bytes.blit_string s 0 b !off (String.length s);
      off := !off + String.length s)
    zc;
  Bytes.to_string b

(* --- Random schemas and messages ------------------------------------- *)

let gen_string rng n =
  String.init n (fun i -> Char.chr ((i * 7 + Sim.Rng.int rng 26) land 0x7f))

let gen_flavour rng =
  match Sim.Rng.int rng 3 with 0 -> `Literal | 1 -> `Copied | _ -> `Zero_copy

let field_kinds = [| `U64; `F64; `Bytes; `Str; `Nested; `Rep_bytes; `Rep_u64 |]

let gen_schema rng =
  let nfields = 1 + Sim.Rng.int rng 6 in
  let kinds = Array.init nfields (fun _ -> field_kinds.(Sim.Rng.int rng 7)) in
  let b = Buffer.create 256 in
  Buffer.add_string b "message Child { uint64 seq = 1; bytes blob = 2; }\n";
  Buffer.add_string b "message M {";
  Array.iteri
    (fun i kind ->
      let decl =
        match kind with
        | `U64 -> "uint64"
        | `F64 -> "double"
        | `Bytes -> "bytes"
        | `Str -> "string"
        | `Nested -> "Child"
        | `Rep_bytes -> "repeated bytes"
        | `Rep_u64 -> "repeated uint64"
      in
      Buffer.add_string b (Printf.sprintf " %s f%d = %d;" decl (i + 1) (i + 1)))
    kinds;
  Buffer.add_string b " }";
  (Schema.Parser.parse (Buffer.contents b), kinds)

let gen_child env rng schema =
  let c = Wire.Dyn.create (Schema.Desc.message schema "Child") in
  if Sim.Rng.bool rng 0.8 then Wire.Dyn.set_int c "seq" (Sim.Rng.next_int64 rng);
  if Sim.Rng.bool rng 0.8 then
    Wire.Dyn.set_payload c "blob"
      (payload env (gen_flavour rng) (gen_string rng (Sim.Rng.int rng 700)));
  c

let gen_message env rng schema kinds =
  let msg = Wire.Dyn.create (Schema.Desc.message schema "M") in
  Array.iteri
    (fun i kind ->
      if Sim.Rng.bool rng 0.8 then
        let name = Printf.sprintf "f%d" (i + 1) in
        match kind with
        | `U64 -> Wire.Dyn.set_int msg name (Sim.Rng.next_int64 rng)
        | `F64 -> Wire.Dyn.set msg name (Wire.Dyn.Float (Sim.Rng.float rng))
        | `Bytes | `Str ->
            Wire.Dyn.set_payload msg name
              (payload env (gen_flavour rng) (gen_string rng (Sim.Rng.int rng 700)))
        | `Nested ->
            Wire.Dyn.set msg name (Wire.Dyn.Nested (gen_child env rng schema))
        | `Rep_bytes ->
            let elems =
              List.init (Sim.Rng.int rng 5) (fun _ ->
                  Wire.Dyn.Payload
                    (payload env (gen_flavour rng)
                       (gen_string rng (Sim.Rng.int rng 700))))
            in
            Wire.Dyn.set msg name (Wire.Dyn.List elems)
        | `Rep_u64 ->
            let elems =
              List.init (Sim.Rng.int rng 5) (fun _ ->
                  Wire.Dyn.Int (Sim.Rng.next_int64 rng))
            in
            Wire.Dyn.set msg name (Wire.Dyn.List elems))
    kinds;
  msg

let qcheck_specialized_equals_reference =
  QCheck.Test.make ~name:"specialized writer matches reference bytes"
    ~count:200 QCheck.small_nat (fun seed ->
      let env = make_env () in
      let rng = Sim.Rng.create ~seed:(seed + 11) in
      let schema, kinds = gen_schema rng in
      let msg = gen_message env rng schema kinds in
      String.equal (real_serialize env msg) (ref_serialize msg))

(* --- Folded callback vs generic writer -------------------------------- *)

let folded_schema =
  Schema.Parser.parse "message G { uint64 id = 1; repeated bytes keys = 2; }"

let g_desc = Schema.Desc.message folded_schema "G"

(* The exact writer shape [Codegen.Emit] generates for G. *)
let folded_write plan w msg =
  if Wire.Dyn.bitmap_word msg 0 = 0x3 then begin
    Wire.Cursor.Writer.span w ~pos:0 ~len:24;
    Wire.Cursor.Writer.u32_at w ~pos:0 1;
    Wire.Cursor.Writer.u32_at w ~pos:4 0x3;
    Wire.Dyn.write_scalar msg 0 w ~pos:8;
    Cornflakes.Format_.write_list_at w plan msg 1 ~slot:16
  end
  else Cornflakes.Format_.write_msg_generic plan w msg

let check_folded_matches env msg =
  let generic = real_serialize env msg in
  let folded = real_serialize ~write:folded_write env msg in
  Alcotest.(check string) "folded = generic" generic folded

let test_folded_full_presence () =
  let env = make_env () in
  let msg = Wire.Dyn.create g_desc in
  Wire.Dyn.set_int msg "id" 0x0123456789abcdefL;
  List.iter
    (fun (flavour, s) ->
      Wire.Dyn.append msg "keys" (Wire.Dyn.Payload (payload env flavour s)))
    [
      (`Copied, "alpha");
      (`Zero_copy, String.make 600 'z');
      (`Literal, "gamma");
    ];
  check_folded_matches env msg

let test_folded_partial_presence_falls_back () =
  let env = make_env () in
  let msg = Wire.Dyn.create g_desc in
  Wire.Dyn.set_int msg "id" 42L;
  check_folded_matches env msg;
  let empty = Wire.Dyn.create g_desc in
  check_folded_matches env empty

(* --- Allocation budgets ------------------------------------------------- *)

module Resp = Apps.Kv_rpc.Resp

(* Minor words over [n] calls of [f] after a warm-up; the two
   [Gc.minor_words] readings cost a few words in all, never per call. *)
let words_over n f =
  for _ = 1 to 100 do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. w0

let calls = 10_000

let check_budget name ~per_call words =
  let budget = float_of_int (per_call * calls) in
  if words < budget || words > budget +. 8.0 then
    Alcotest.failf "%s: %.0f minor words over %d calls, expected %d per call"
      name words calls per_call

(* A warmed pooled response (id, copied + zero-copy + literal values):
   measuring it and writing it through the generated folded writer
   allocate nothing. *)
let test_write_path_allocates_nothing () =
  let env = make_env () in
  let resp = Resp.create () in
  Resp.set_id resp 7L;
  List.iter
    (fun (flavour, s) -> Resp.add_vals_payload resp (payload env flavour s))
    [ (`Copied, String.make 64 'c'); (`Zero_copy, String.make 600 'z');
      (`Literal, "lit") ];
  let msg = Resp.to_dyn resp in
  let plan = Cornflakes.Format_.create_plan () in
  let data = Bytes.create 4096 in
  let view = Mem.View.make ~addr:0 ~data ~off:0 ~len:4096 in
  let w = Wire.Cursor.Writer.create ~cpu:none view in
  check_budget "measure_into" ~per_call:0
    (words_over calls (fun () -> Cornflakes.Format_.measure_into plan msg));
  check_budget "write_folded" ~per_call:0
    (words_over calls (fun () ->
         Cornflakes.Format_.measure_into plan msg;
         Wire.Cursor.Writer.reset ~cpu:none w view;
         Cornflakes.Format_.run plan w msg ~write:Resp.write_folded))

(* Rebuilding a pooled response with one zero-copy value allocates only
   that value's payload handle: the [Zero_copy] block (2 words) around
   its [Pinned.Buf.t] (7 words). Clearing, stamping the id and appending
   allocate nothing. *)
let test_pooled_build_allocates_handle () =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let ep = Net.Endpoint.create ~cpu:none fabric registry ~id:1 in
  let pool = Mem.Pinned.Pool.create space ~name:"budget" ~classes:[ (1024, 4) ] in
  Mem.Registry.register registry pool;
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:600 in
  let view = Mem.Pinned.Buf.view buf in
  let config = Cornflakes.Config.default in
  let resp = Resp.create () in
  check_budget "pooled build" ~per_call:9
    (words_over calls (fun () ->
         Resp.clear resp;
         Resp.set_id_int resp 9;
         Resp.add_vals ~cpu:none config ep resp view));
  Alcotest.(check bool) "value went zero-copy" true
    (Wire.Payload.is_zero_copy (List.hd (Resp.vals resp)))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_specialized_equals_reference;
    Alcotest.test_case "measure and folded write allocate nothing" `Quick
      test_write_path_allocates_nothing;
    Alcotest.test_case "pooled build allocates only the payload handle" `Quick
      test_pooled_build_allocates_handle;
    Alcotest.test_case "folded callback, full presence" `Quick
      test_folded_full_presence;
    Alcotest.test_case "folded callback, fallback" `Quick
      test_folded_partial_presence_falls_back;
  ]

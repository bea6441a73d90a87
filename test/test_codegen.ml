(* Tests for the schema compiler (code generation). *)

let test_ocaml_name_sanitization () =
  List.iter
    (fun (input, want) ->
      Alcotest.(check string) input want (Codegen.Emit.ocaml_name input))
    [
      ("vals", "vals");
      ("MyField", "myfield");
      ("type", "type_");
      ("end", "end_");
      ("9lives", "f9lives");
      ("weird-name", "weird_name");
      ("", "field");
    ]

let test_generated_source_mentions_all_fields () =
  let schema_text =
    "message Pair { uint64 first = 1; bytes second = 2; double ratio = 3; }"
  in
  let schema = Schema.Parser.parse schema_text in
  let src = Codegen.Emit.module_source ~schema_text schema in
  let contains needle =
    let n = String.length needle and h = String.length src in
    let rec go i = i + n <= h && (String.sub src i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains needle))
    [
      "module Pair";
      "let set_first";
      "let first";
      "let set_second";
      "let set_ratio";
      "Wire.Dyn.set_float_at t.msg idx_ratio";
      "let set_first_int";
      "let reader";
      "let read_folded";
      "let send";
      "DO NOT EDIT";
    ];
  (* Received frames are read in place: no message parses them into a
     heap object. *)
  Alcotest.(check bool) "no let deserialize" false (contains "let deserialize")

(* The modules dune compiles from [.proto] files at build time (one rule
   per directory, running bin/compile_schema.exe), as build-tree paths
   without extension: each [.ml] lands next to its [.ir] sidecar, and its
   schema is the [.proto] alongside. *)
let generated_modules =
  [
    ("lib/apps/kv.proto", "lib/apps/kv_rpc");
    ("lib/replication/replication.proto", "lib/replication/replication_rpc");
    ("examples/kv.proto", "examples/kv_msgs");
  ]

(* dune runs tests in _build/default/test; the build tree is one level up. *)
let build_root = Filename.concat (Sys.getcwd ()) ".."

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The CLI and the build rule share one front end ([Codegen.Compile]):
   [cornflakes_cli compile] reproduces every build-generated pair byte for
   byte. *)
let test_cli_compile_matches_rule () =
  let in_build p = Filename.concat build_root p in
  let cli = in_build "bin/cornflakes_cli.exe" in
  List.iter
    (fun (proto, gen) ->
      let ml = Filename.temp_file "cf_compile" ".ml" in
      let ir = Filename.temp_file "cf_compile" ".ir" in
      let cmd =
        Filename.quote_command cli ~stdout:Filename.null
          [ "compile"; in_build proto; "-o"; ml; "--ir"; ir ]
      in
      Alcotest.(check int) (proto ^ ": compile exits 0") 0 (Sys.command cmd);
      List.iter
        (fun (out, ext) ->
          Alcotest.(check bool)
            (Printf.sprintf "CLI output equals %s%s" gen ext)
            true
            (String.equal (read_file out) (read_file (in_build (gen ^ ext)))))
        [ (ml, ".ml"); (ir, ".ir") ];
      Sys.remove ml;
      Sys.remove ir)
    generated_modules

let contains ~hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* One copy/zero-copy decision: every payload setter, whatever size bound
   its field declares, builds its CFPtr with [Cf_ptr.make], so the
   caller's [Config.t] policy decides at run time. No other [Cf_ptr]
   function appears as a setter callee in the source or the IR. *)
let test_setters_call_make () =
  let schema_text =
    "message B { bytes small = 1 [max_size=128]; bytes big = 2 \
     [max_size=65536]; repeated bytes many = 3; }"
  in
  let schema = Schema.Parser.parse schema_text in
  let src = Codegen.Emit.module_source ~schema_text schema in
  let ir = Codegen.Emit.ir_source schema in
  List.iter
    (fun (setter, store) ->
      Alcotest.(check bool) (setter ^ " calls Cf_ptr.make") true
        (contains ~hay:src
           (Printf.sprintf
              "let %s ~cpu config ep t view =\n\
              \    %s (Cornflakes.Cf_ptr.make ~cpu config ep view)\n"
              setter store));
      Alcotest.(check bool) (setter ^ " IR callee is Cf_ptr.make") true
        (contains ~hay:ir
           (Printf.sprintf
              "fn B.%s role=setter callee=Cornflakes.Cf_ptr.make\n" setter)))
    [
      ("set_small", "Wire.Dyn.set_payload_at t.msg idx_small");
      ("set_big", "Wire.Dyn.set_payload_at t.msg idx_big");
      ("add_many", "Wire.Dyn.append_payload_at t.msg idx_many");
    ];
  (* Every [Cf_ptr] reference in the source and in the IR names [make]:
     the three setters' calls and callees, and nothing else. *)
  let cf_ptr = "Cornflakes.Cf_ptr." in
  let n = String.length cf_ptr in
  let rec names hay i acc =
    if i + n > String.length hay then List.rev acc
    else if String.sub hay i n <> cf_ptr then names hay (i + 1) acc
    else
      let stop = ref (i + n) in
      while
        match hay.[!stop] with 'a' .. 'z' | '_' -> true | _ -> false
      do
        incr stop
      done;
      names hay !stop (String.sub hay (i + n) (!stop - i - n) :: acc)
  in
  List.iter
    (fun (what, hay) ->
      Alcotest.(check (list string))
        (what ^ ": Cf_ptr functions named")
        [ "make"; "make"; "make" ] (names hay 0 []))
    [ ("source", src); ("IR", ir) ]

(* The specialized writer: foldable messages get a folded [write_folded]
   with literal offsets behind one hoisted span; unfoldable ones (>32
   fields) degrade to the generic writer. *)
let test_write_folded_emission () =
  let schema_text = "message P { uint64 a = 1; double b = 2; bytes c = 3; }" in
  let schema = Schema.Parser.parse schema_text in
  let src = Codegen.Emit.module_source ~schema_text schema in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains ~hay:src needle))
    [
      "let write_folded";
      "Wire.Cursor.Writer.span";
      (* all-present bitmap for three fields, folded to a literal *)
      "0x7";
      (* slot offsets folded to literals: base 8, then 16, 24 *)
      "~pos:8";
      "~pos:16";
      "~slot:24";
      (* presence is tested on the bitmap word; scalars (floats included)
         are copied from the word column *)
      "Wire.Dyn.bitmap_word msg 0 = 0x7";
      "Wire.Dyn.write_scalar msg idx_b w ~pos:16";
      "Cornflakes.Format_.write_msg_generic";
      "~write:write_folded";
    ];
  (* 33 fields -> two bitmap words -> no folded fast path. *)
  let wide =
    let b = Buffer.create 512 in
    Buffer.add_string b "message W {";
    for i = 1 to 33 do
      Buffer.add_string b (Printf.sprintf " uint64 f%d = %d;" i i)
    done;
    Buffer.add_string b " }";
    Buffer.contents b
  in
  let wide_schema = Schema.Parser.parse wide in
  let wide_src = Codegen.Emit.module_source ~schema_text:wide wide_schema in
  Alcotest.(check bool) "wide message still has write_folded" true
    (contains ~hay:wide_src "let write_folded");
  Alcotest.(check bool) "wide message has no span fast path" false
    (contains ~hay:wide_src "Wire.Cursor.Writer.span")

(* Service emission: a [service] declaration compiles to a typed client
   stub and a server skeleton over the message modules — method-id
   consts, the dispatch table, one serve over the request's read
   signature and its two decoders, stream emission, deadline defaults,
   and the IR sidecar rows for each. *)
let test_service_emission () =
  let schema_text =
    {|message Req { uint64 id = 1; uint32 op = 2; repeated bytes keys = 3; }
      message Resp { uint64 id = 1; uint64 seq = 2; repeated bytes vals = 3; }
      service Store {
        rpc Get (Req) returns (Resp);
        rpc Put (Req) returns (Resp) [deadline_ms=5];
        rpc Scan (Req) returns (Resp) [stream];
      }|}
  in
  let schema = Schema.Parser.parse schema_text in
  let src = Codegen.Emit.module_source ~schema_text schema in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains ~hay:src needle))
    [
      "module Store_service";
      "let id_get = 0L";
      "let id_put = 1L";
      "let id_scan = 2L";
      "let method_count = 3";
      "let deadline_ms_put : int option = Some 5";
      "let stream_scan = true";
      "module Server (D : Req.R)";
      "Rpc.Table.create ~n:3 ~fallback:unhandled";
      "let on_get s h";
      "let on_scan s h";
      "let serve s ~src buf";
      "match D.decode s.s_req buf with";
      "D.finish s.s_req";
      "Rpc.Table.dispatch";
      "module In_place : R with type t = Wire.Reader.t";
      "let decode r buf = Wire.Reader.validate r buf";
      "let keys_key r j = Wire.Reader.elem_key r idx_keys ~j [@@alloc_free]";
      "module Parsed : sig";
      "Wire.Dyn.release ~cpu:r.cpu r.msg";
      "type decoder = Decoder : (module R with type t = 'd) * 'd -> decoder";
      "let emit_scan s ~dst ~id cur ~last";
      "Rpc.Stream.next cur ~last";
      "let client ?config ?engine ?reliab tr";
      "let call_get ?deadline_ms c ~dst req ~on_reply";
      "let call_scan ?deadline_ms c ~dst req ~on_chunk ~on_done";
      "Rpc.Client.call_stream";
      "let deliver c buf";
      "Rpc.Client.complete";
    ];
  (* Unary-only services must not reference the stream runtime nor read a
     seq word on delivery. *)
  let unary =
    {|message Rq { uint64 id = 1; uint32 op = 2; }
      message Rs { uint64 id = 1; }
      service S { rpc Ping (Rq) returns (Rs); }|}
  in
  let uschema = Schema.Parser.parse unary in
  let usrc = Codegen.Emit.module_source ~schema_text:unary uschema in
  Alcotest.(check bool) "no stream cursor in unary service" false
    (contains ~hay:usrc "Rpc.Stream");
  Alcotest.(check bool) "no seq routing in unary deliver" false
    (contains ~hay:usrc "seq_word");
  (* IR sidecar: one row per generated service entry point, with the
     load-bearing callee recorded. *)
  let ir = Codegen.Emit.ir_source schema in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains ~hay:ir needle))
    [
      "fn Store_service.Server.server role=alloc callee=Rpc.Table.create";
      "fn Store_service.Server.serve role=reader callee=Rpc.Table.dispatch";
      "fn Store_service.Server.emit_scan role=send callee=Rpc.Stream.next";
      "fn Req.In_place.decode role=reader callee=Wire.Reader.validate";
      "fn Req.Parsed.finish role=release callee=Wire.Dyn.release";
      "fn Req.In_place.keys_key role=getter callee=Wire.Reader.elem_key";
      "fn Store_service.call_get role=send callee=Rpc.Client.call";
      "fn Store_service.call_scan role=send callee=Rpc.Client.call_stream";
      "fn Store_service.deliver role=reader callee=Rpc.Client.complete";
    ]

let test_generated_roundtrips_against_runtime () =
  (* Emit code for a schema, then exercise the same accessors through the
     dynamic API the generated code wraps, proving the calling conventions
     the generator relies on exist and behave. *)
  let schema_text = "message M { uint64 id = 1; repeated bytes blobs = 2; }" in
  let schema = Schema.Parser.parse schema_text in
  let src = Codegen.Emit.module_source ~schema_text schema in
  Alcotest.(check bool) "generated something" true (String.length src > 200);
  let space = Mem.Addr_space.create () in
  let desc = Schema.Desc.message schema "M" in
  let msg = Wire.Dyn.create desc in
  Wire.Dyn.set_int msg "id" 5L;
  Wire.Dyn.append msg "blobs"
    (Wire.Dyn.Payload (Wire.Payload.of_string space "payload"));
  Alcotest.(check bool) "object_len positive" true
    (Cornflakes.Format_.object_len msg > 0)

let suite =
  [
    Alcotest.test_case "name sanitization" `Quick test_ocaml_name_sanitization;
    Alcotest.test_case "source covers fields" `Quick
      test_generated_source_mentions_all_fields;
    Alcotest.test_case "CLI compile equals build rule" `Quick
      test_cli_compile_matches_rule;
    Alcotest.test_case "payload setters call Cf_ptr.make" `Quick
      test_setters_call_make;
    Alcotest.test_case "folded writer emission" `Quick
      test_write_folded_emission;
    Alcotest.test_case "service emission" `Quick test_service_emission;
    Alcotest.test_case "runtime conventions" `Quick
      test_generated_roundtrips_against_runtime;
  ]

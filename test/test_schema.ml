(* Tests for the schema language: lexer, parser, descriptors, validation. *)

let kv_schema =
  {|
  // The paper's Listing 1 message.
  syntax = "proto3";
  message GetM {
    uint32 id = 1;
    repeated bytes keys = 2;
    repeated bytes vals = 3;
  }
  message Meta {
    string note = 1;
  }
  message Get {
    uint32 id = 1;
    bytes key = 2;
    bytes val = 3;
    Meta meta = 4;
  }
  |}

let test_parse_messages () =
  let s = Schema.Parser.parse kv_schema in
  Alcotest.(check int) "three messages" 3 (List.length s.Schema.Desc.messages);
  let getm = Schema.Desc.message s "GetM" in
  Alcotest.(check int) "fields" 3 (Array.length getm.Schema.Desc.fields);
  let keys = Schema.Desc.field getm "keys" in
  Alcotest.(check bool) "repeated" true
    (keys.Schema.Desc.label = Schema.Desc.Repeated);
  Alcotest.(check bool) "bytes" true (keys.Schema.Desc.ty = Schema.Desc.Bytes);
  let get = Schema.Desc.message s "Get" in
  let meta = Schema.Desc.field get "meta" in
  Alcotest.(check bool) "nested type" true
    (meta.Schema.Desc.ty = Schema.Desc.Message "Meta")

let test_fields_sorted_by_number () =
  let s = Schema.Parser.parse "message M { int32 b = 5; int32 a = 2; }" in
  let m = Schema.Desc.message s "M" in
  Alcotest.(check string) "first by number" "a"
    m.Schema.Desc.fields.(0).Schema.Desc.field_name

let test_comments_skipped () =
  let s =
    Schema.Parser.parse
      "/* block */ message M { // line\n int64 x = 1; /* mid */ }"
  in
  let m = Schema.Desc.message s "M" in
  Alcotest.(check int) "one field" 1 (Array.length m.Schema.Desc.fields)

let expect_parse_error src =
  match Schema.Parser.parse src with
  | _ -> Alcotest.failf "expected parse failure for %S" src
  | exception Schema.Parser.Parse_error _ -> ()
  | exception Schema.Lexer.Lex_error _ -> ()

let test_rejects_duplicate_numbers () =
  expect_parse_error "message M { int32 a = 1; int32 b = 1; }"

let test_rejects_duplicate_names () =
  expect_parse_error "message M { int32 a = 1; int32 a = 2; }"

let test_rejects_unresolved_nested () =
  expect_parse_error "message M { Missing x = 1; }"

let test_rejects_zero_field_number () =
  expect_parse_error "message M { int32 a = 0; }"

let test_rejects_garbage () =
  expect_parse_error "message M { int32 a = }";
  expect_parse_error "message { }";
  expect_parse_error "message M { int32 a = 1 ";
  expect_parse_error "mess@ge M {}"

(* [max_size] is the only field option; a lower bound is not one. *)
let test_rejects_min_size () =
  match Schema.Parser.parse "message M { bytes b = 1 [min_size=8]; }" with
  | _ -> Alcotest.fail "expected Parse_error for [min_size=8]"
  | exception Schema.Parser.Parse_error _ -> ()

let test_field_index () =
  let s = Schema.Parser.parse kv_schema in
  let getm = Schema.Desc.message s "GetM" in
  Alcotest.(check int) "vals at 2" 2 (Schema.Desc.field_index getm "vals");
  Alcotest.check_raises "missing field" Not_found (fun () ->
      ignore (Schema.Desc.field_index getm "nope"))

let test_all_scalar_types () =
  let s =
    Schema.Parser.parse
      {|message S {
         bool b = 1; int32 i32 = 2; int64 i64 = 3;
         uint32 u32 = 4; uint64 u64 = 5; double d = 6;
         string s = 7; bytes by = 8;
       }|}
  in
  let m = Schema.Desc.message s "S" in
  Alcotest.(check int) "eight fields" 8 (Array.length m.Schema.Desc.fields);
  Alcotest.(check bool) "double" true
    ((Schema.Desc.field m "d").Schema.Desc.ty
    = Schema.Desc.Scalar Schema.Desc.Float64)

(* --- services ------------------------------------------------------------ *)

let svc_envelope =
  {|
  message Req { uint64 id = 1; uint32 op = 2; repeated bytes keys = 3; }
  message Resp { uint64 id = 1; uint64 seq = 2; repeated bytes vals = 3; }
  |}

let test_parse_service () =
  let s =
    Schema.Parser.parse
      (svc_envelope
      ^ {|service Kv {
            rpc Get (Req) returns (Resp);
            rpc Put (Req) returns (Resp) [deadline_ms=5];
            rpc Scan (Req) returns (Resp) [stream];
            rpc Probe (Req) returns (Resp) = 7;
          }|})
  in
  let svc = Schema.Desc.service s "Kv" in
  Alcotest.(check int) "four methods" 4 (Array.length svc.Schema.Desc.methods);
  let get = Schema.Desc.method_ svc "Get" in
  Alcotest.(check int) "declaration-index id" 0 get.Schema.Desc.meth_id;
  Alcotest.(check bool) "unary" false get.Schema.Desc.stream;
  let put = Schema.Desc.method_ svc "Put" in
  Alcotest.(check (option int)) "deadline" (Some 5) put.Schema.Desc.deadline_ms;
  let scan = Schema.Desc.method_ svc "Scan" in
  Alcotest.(check bool) "streamed" true scan.Schema.Desc.stream;
  let probe = Schema.Desc.method_ svc "Probe" in
  Alcotest.(check int) "pinned id" 7 probe.Schema.Desc.meth_id;
  Alcotest.(check int) "max id covers the pin" 7
    (Schema.Desc.max_method_id svc);
  Alcotest.(check int) "method index" 2 (Schema.Desc.method_index svc "Scan")

let test_service_envelope_contract () =
  (* One request/response envelope per service. *)
  expect_parse_error
    (svc_envelope
    ^ {|message Other { uint64 id = 1; uint32 op = 2; }
        service S { rpc A (Req) returns (Resp); rpc B (Other) returns (Resp); }|});
  (* Request envelope must carry [op] and [id] integer scalars. *)
  expect_parse_error
    {|message NoOp { uint64 id = 1; }
      message R { uint64 id = 1; }
      service S { rpc A (NoOp) returns (R); }|};
  (* Response envelope must carry [id]. *)
  expect_parse_error
    {|message Rq { uint64 id = 1; uint32 op = 2; }
      message NoId { repeated bytes vals = 1; }
      service S { rpc A (Rq) returns (NoId); }|};
  (* Streamed methods need [seq] in the response envelope. *)
  expect_parse_error
    {|message Rq { uint64 id = 1; uint32 op = 2; }
      message R { uint64 id = 1; }
      service S { rpc A (Rq) returns (R) [stream]; }|};
  (* Unresolved request type. *)
  expect_parse_error
    (svc_envelope ^ "service S { rpc A (Missing) returns (Resp); }")

let test_service_rejects_bad_ids () =
  (* Duplicate method ids (pin collides with a declaration index). *)
  expect_parse_error
    (svc_envelope
    ^ {|service S { rpc A (Req) returns (Resp);
                    rpc B (Req) returns (Resp) = 0; }|});
  (* Duplicate method names. *)
  expect_parse_error
    (svc_envelope
    ^ {|service S { rpc A (Req) returns (Resp);
                    rpc A (Req) returns (Resp); }|});
  (* Bad deadline. *)
  expect_parse_error
    (svc_envelope ^ "service S { rpc A (Req) returns (Resp) [deadline_ms=0]; }")

let suite =
  [
    Alcotest.test_case "parse messages" `Quick test_parse_messages;
    Alcotest.test_case "parse service" `Quick test_parse_service;
    Alcotest.test_case "service envelope contract" `Quick
      test_service_envelope_contract;
    Alcotest.test_case "service rejects bad ids" `Quick
      test_service_rejects_bad_ids;
    Alcotest.test_case "fields sorted" `Quick test_fields_sorted_by_number;
    Alcotest.test_case "comments skipped" `Quick test_comments_skipped;
    Alcotest.test_case "rejects duplicate numbers" `Quick test_rejects_duplicate_numbers;
    Alcotest.test_case "rejects duplicate names" `Quick test_rejects_duplicate_names;
    Alcotest.test_case "rejects unresolved nested" `Quick test_rejects_unresolved_nested;
    Alcotest.test_case "rejects zero field number" `Quick test_rejects_zero_field_number;
    Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
    Alcotest.test_case "rejects min_size option" `Quick test_rejects_min_size;
    Alcotest.test_case "field index" `Quick test_field_index;
    Alcotest.test_case "all scalar types" `Quick test_all_scalar_types;
  ]

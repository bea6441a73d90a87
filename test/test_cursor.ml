(* Property tests for the charged byte cursors (every serializer's
   substrate). *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

let make_view n =
  let space = Mem.Addr_space.create () in
  Mem.View.make
    ~addr:(Mem.Addr_space.reserve space ~bytes:n)
    ~data:(Bytes.create n) ~off:0 ~len:n

let qcheck_scalar_roundtrip =
  QCheck.Test.make ~name:"cursor scalars roundtrip" ~count:300
    QCheck.(triple (int_bound 0xffff) (int_bound 0x7fffffff) int64)
    (fun (a, b, c) ->
      let view = make_view 64 in
      let w = Wire.Cursor.Writer.create ~cpu:none view in
      Wire.Cursor.Writer.u16 w a;
      Wire.Cursor.Writer.u32 w b;
      Wire.Cursor.Writer.u64 w c;
      Wire.Cursor.Writer.u8 w (a land 0xff);
      let r = Wire.Cursor.Reader.create ~cpu:none view in
      Wire.Cursor.Reader.u16 r = a
      && Wire.Cursor.Reader.u32 r = b
      && Int64.equal (Wire.Cursor.Reader.u64 r) c
      && Wire.Cursor.Reader.u8 r = a land 0xff)

let qcheck_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip and length" ~count:500 QCheck.int64
    (fun v ->
      let view = make_view 16 in
      let w = Wire.Cursor.Writer.create ~cpu:none view in
      Wire.Cursor.Writer.varint w v;
      let written = Wire.Cursor.Writer.pos w in
      let r = Wire.Cursor.Reader.create ~cpu:none view in
      let back = Wire.Cursor.Reader.varint r in
      Int64.equal back v
      && written = Wire.Cursor.varint_len v
      && Wire.Cursor.Reader.pos r = written)

let qcheck_string_roundtrip =
  QCheck.Test.make ~name:"cursor strings roundtrip" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun s ->
      let view = make_view (String.length s + 8) in
      let w = Wire.Cursor.Writer.create ~cpu:none view in
      Wire.Cursor.Writer.u32 w (String.length s);
      Wire.Cursor.Writer.string w s;
      let r = Wire.Cursor.Reader.create ~cpu:none view in
      let n = Wire.Cursor.Reader.u32 r in
      String.equal (Wire.Cursor.Reader.string r ~len:n) s)

let test_writer_bounds () =
  let view = make_view 4 in
  let w = Wire.Cursor.Writer.create ~cpu:none view in
  Wire.Cursor.Writer.u32 w 42;
  (match Wire.Cursor.Writer.u8 w 1 with
  | () -> Alcotest.fail "expected overflow"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "remaining" 0 (Wire.Cursor.Writer.remaining w)

let test_reader_bounds () =
  let view = make_view 2 in
  let r = Wire.Cursor.Reader.create ~cpu:none view in
  match Wire.Cursor.Reader.u32 r with
  | _ -> Alcotest.fail "expected underflow"
  | exception Invalid_argument _ -> ()

let test_varint_max_length_rejected () =
  (* 11 continuation bytes cannot encode a 64-bit varint. *)
  let space = Mem.Addr_space.create () in
  let data = Bytes.make 12 '\xff' in
  let view =
    Mem.View.make ~addr:(Mem.Addr_space.reserve space ~bytes:12) ~data ~off:0
      ~len:12
  in
  let r = Wire.Cursor.Reader.create ~cpu:none view in
  match Wire.Cursor.Reader.varint r with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_seek_and_backpatch () =
  let view = make_view 16 in
  let w = Wire.Cursor.Writer.create ~cpu:none view in
  Wire.Cursor.Writer.u32 w 0;
  (* placeholder *)
  Wire.Cursor.Writer.u32 w 7;
  Wire.Cursor.Writer.seek w 0;
  Wire.Cursor.Writer.u32 w 99;
  let r = Wire.Cursor.Reader.create ~cpu:none view in
  Alcotest.(check int) "patched" 99 (Wire.Cursor.Reader.u32 r);
  Alcotest.(check int) "second intact" 7 (Wire.Cursor.Reader.u32 r)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_scalar_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_varint_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_string_roundtrip;
    Alcotest.test_case "writer bounds" `Quick test_writer_bounds;
    Alcotest.test_case "reader bounds" `Quick test_reader_bounds;
    Alcotest.test_case "varint too long" `Quick test_varint_max_length_rejected;
    Alcotest.test_case "seek and backpatch" `Quick test_seek_and_backpatch;
  ]

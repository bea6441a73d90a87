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

(* A writer retargeted at a pinned buffer's window behaves as a writer
   over [Pinned.Buf.sub_view] of that window: over random windows and op
   sequences the two raise [Overflow] at the same op, stop at the same
   offset, write the same bytes and charge the same cycles; a window
   leaving the slot raises the same [Invalid_argument] from both, and a
   stale buffer [Use_after_free] from both. *)
type wop =
  | U8 of int
  | U16 of int
  | U32 of int
  | U64 of int64
  | Varint of int64
  | Str of string

let apply_wop w = function
  | U8 v -> Wire.Cursor.Writer.u8 w v
  | U16 v -> Wire.Cursor.Writer.u16 w v
  | U32 v -> Wire.Cursor.Writer.u32 w v
  | U64 v -> Wire.Cursor.Writer.u64 w v
  | Varint v -> Wire.Cursor.Writer.varint w v
  | Str s -> Wire.Cursor.Writer.string w s

let gen_wop =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> U8 v) (int_bound 0xff);
        map (fun v -> U16 v) (int_bound 0xffff);
        map (fun v -> U32 v) (int_bound 0x3fffffff);
        map (fun v -> U64 v) ui64;
        map (fun v -> Varint v) ui64;
        map (fun s -> Str s) (string_size (int_bound 40));
      ])

(* Run [ops] until one overflows ([Invalid_argument]): the number applied
   and the offset. *)
let run_wops w ops =
  let rec go n = function
    | [] -> (n, Wire.Cursor.Writer.pos w)
    | op :: rest -> (
        match apply_wop w op with
        | () -> go (n + 1) rest
        | exception Invalid_argument _ -> (n, Wire.Cursor.Writer.pos w))
  in
  go 0 ops

let retarget_twin ~off ~len ops how =
  let space = Mem.Addr_space.create () in
  let pool =
    Mem.Pinned.Pool.create space ~name:"cursor" ~classes:[ (256, 4) ]
  in
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:200 in
  let cpu = Memmodel.Cpu.create Memmodel.Params.default in
  let outcome =
    match
      match how with
      | `Sub_view ->
          Wire.Cursor.Writer.create ~cpu
            (Mem.Pinned.Buf.sub_view buf ~off ~len)
      | `Of_buf -> Wire.Cursor.Writer.of_buf ~cpu buf ~off ~len
      | `Retarget ->
          let w = Wire.Cursor.Writer.create ~cpu:none (make_view 8) in
          Wire.Cursor.Writer.u32 w 7;
          Wire.Cursor.Writer.retarget ~cpu w buf ~off ~len;
          w
    with
    | w -> Ok (run_wops w ops)
    | exception Invalid_argument msg -> Error msg
  in
  let bytes =
    let v = Mem.Pinned.Buf.view buf in
    Bytes.sub_string v.Mem.View.data v.Mem.View.off 256
  in
  (outcome, bytes, Memmodel.Cpu.breakdown cpu)

let qcheck_retarget_equals_sub_view =
  QCheck.Test.make ~name:"retargeted writer overflows like a sub_view writer"
    ~count:300
    QCheck.(
      make
        Gen.(
          triple (int_range (-2) 260) (int_range (-2) 260)
            (list_size (int_bound 30) gen_wop)))
    (fun (off, len, ops) ->
      let reference = retarget_twin ~off ~len ops `Sub_view in
      reference = retarget_twin ~off ~len ops `Of_buf
      && reference = retarget_twin ~off ~len ops `Retarget)

let test_retarget_stale () =
  let space = Mem.Addr_space.create () in
  let pool =
    Mem.Pinned.Pool.create space ~name:"cursor" ~classes:[ (256, 4) ]
  in
  let buf = Mem.Pinned.Buf.alloc ~cpu:none pool ~len:64 in
  Mem.Pinned.Buf.decr_ref ~cpu:none buf;
  let stale f =
    match f () with
    | _ -> Alcotest.fail "a stale buffer was written"
    | exception Mem.Pinned.Use_after_free _ -> ()
  in
  stale (fun () -> Mem.Pinned.Buf.sub_view buf ~off:0 ~len:8);
  stale (fun () -> Wire.Cursor.Writer.of_buf ~cpu:none buf ~off:0 ~len:8)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_scalar_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_varint_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_string_roundtrip;
    Alcotest.test_case "writer bounds" `Quick test_writer_bounds;
    Alcotest.test_case "reader bounds" `Quick test_reader_bounds;
    Alcotest.test_case "varint too long" `Quick test_varint_max_length_rejected;
    Alcotest.test_case "seek and backpatch" `Quick test_seek_and_backpatch;
    QCheck_alcotest.to_alcotest qcheck_retarget_equals_sub_view;
    Alcotest.test_case "retarget of a stale buffer" `Quick test_retarget_stale;
  ]

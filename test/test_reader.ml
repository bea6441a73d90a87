(* The validate-once reader against the Dyn parser it replaces.

   Two properties anchor the zero-copy receive path:

   - equivalence: over random messages, every field read through
     [Wire.Reader]'s in-place accessors is byte-equal to the same field of
     the [Wire.Dyn] the full parse materializes — and the two paths agree
     on which frames they accept at all;

   - memory safety at the boundary: truncated frames, overhanging payload
     slots and lying bitmaps are rejected by the validator (never by an
     out-of-bounds read in an accessor).

   Plus the RX ownership contract (DESIGN.md §15): a retained [Wire.Rc_view]
   keeps its RX ring slot out of the recycle pool, releasing it recycles the
   slot, and a leaked view is reported by RefSan at quiesce with its
   acquisition site. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

let schema = Test_format.schema

let everything = Test_format.everything

let child = Test_format.child

module D = Schema.Desc

let idx name = D.field_index everything name

let payload_bytes (p : Wire.Payload.t) = Mem.View.to_string (Wire.Payload.view p)

let check_str what a b =
  if not (String.equal a b) then
    Alcotest.failf "%s: reader %S vs dyn %S" what a b

let check_i64 what a b =
  if not (Int64.equal a b) then Alcotest.failf "%s: reader %Ld vs dyn %Ld" what a b

(* Compare every field of [d] (the Dyn parse of a frame) against the
   in-place reads of [r] (validated over the same frame). *)
let check_child_equiv r (d : Wire.Dyn.t) =
  let seq = D.field_index child "seq" and blob = D.field_index child "blob" in
  (match Wire.Dyn.get_int d "seq" with
  | Some v -> check_i64 "child.seq" (Wire.Reader.get_u64 r seq) v
  | None -> Alcotest.(check bool) "child.seq absent" false (Wire.Reader.present r seq));
  match Wire.Dyn.get_payload d "blob" with
  | Some p -> check_str "child.blob" (Wire.Reader.payload_string r blob) (payload_bytes p)
  | None -> Alcotest.(check bool) "child.blob absent" false (Wire.Reader.present r blob)

let check_equiv r (d : Wire.Dyn.t) =
  let nested_scratch = Wire.Reader.create child in
  Array.iteri
    (fun i (f : D.field) ->
      let name = f.D.field_name in
      let dv = Wire.Dyn.get d name in
      Alcotest.(check bool)
        (name ^ " presence agrees")
        (dv <> None)
        (Wire.Reader.present r i);
      match dv with
      | None -> ()
      | Some (Wire.Dyn.Int v) -> check_i64 name (Wire.Reader.get_u64 r i) v
      | Some (Wire.Dyn.Float v) ->
          check_i64 name
            (Int64.bits_of_float (Wire.Reader.get_float r i))
            (Int64.bits_of_float v)
      | Some (Wire.Dyn.Payload p) ->
          check_str name (Wire.Reader.payload_string r i) (payload_bytes p)
      | Some (Wire.Dyn.Nested nd) ->
          Wire.Reader.nested r i ~into:nested_scratch;
          check_child_equiv nested_scratch nd
      | Some (Wire.Dyn.List vs) ->
          let n = Wire.Reader.count r i in
          Alcotest.(check int) (name ^ " count") (List.length vs) n;
          List.iteri
            (fun j v ->
              match v with
              | Wire.Dyn.Int x -> check_i64 name (Wire.Reader.elem_u64 r i ~j) x
              | Wire.Dyn.Payload p ->
                  check_str name (Wire.Reader.elem_string r i ~j) (payload_bytes p)
              | Wire.Dyn.Nested nd ->
                  Wire.Reader.nested_elem r i ~j ~into:nested_scratch;
                  check_child_equiv nested_scratch nd
              | _ -> Alcotest.fail "unexpected element kind")
            vs)
    everything.D.fields

let qcheck_reader_equals_dyn =
  QCheck.Test.make ~name:"reader reads byte-equal to Dyn parse" ~count:150
    QCheck.small_nat (fun seed ->
      let env = Test_format.make_env () in
      let rng = Sim.Rng.create ~seed:(seed + 11) in
      let msg = Test_format.gen_message env rng in
      let _plan, buf = Test_format.serialize env msg in
      let d = Cornflakes.Format_.deserialize ~cpu:none schema everything buf in
      let r = Wire.Reader.create everything in
      Wire.Reader.validate r buf;
      check_equiv r d;
      Wire.Dyn.release ~cpu:none d;
      true)

(* Touch every present field through the in-place accessors, opening nested
   levels as they are reached. Nested validation is by-need (a level is
   checked when opened), so the reader-side twin of a full Dyn parse is
   validate + this walk — not validate alone. *)
let rec deep_read r =
  let desc = Wire.Reader.desc r in
  Array.iteri
    (fun i (f : D.field) ->
      if Wire.Reader.present r i then
        let nested_reader () =
          match f.D.ty with
          | D.Message name -> Wire.Reader.create (D.message schema name)
          | _ -> assert false
        in
        match (f.D.label, f.D.ty) with
        | D.Singular, D.Scalar _ -> ignore (Wire.Reader.get_u64 r i)
        | D.Singular, (D.Str | D.Bytes) ->
            ignore (Wire.Reader.payload_string r i)
        | D.Singular, D.Message _ ->
            let into = nested_reader () in
            Wire.Reader.nested r i ~into;
            deep_read into
        | D.Repeated, D.Scalar _ ->
            for j = 0 to Wire.Reader.count r i - 1 do
              ignore (Wire.Reader.elem_u64 r i ~j)
            done
        | D.Repeated, (D.Str | D.Bytes) ->
            for j = 0 to Wire.Reader.count r i - 1 do
              ignore (Wire.Reader.elem_string r i ~j)
            done
        | D.Repeated, D.Message _ ->
            let into = nested_reader () in
            for j = 0 to Wire.Reader.count r i - 1 do
              Wire.Reader.nested_elem r i ~j ~into;
              deep_read into
            done)
    desc.D.fields

(* Accept-iff: the validator (plus a full in-place traversal, which is what
   forces the by-need nested validations) and the Dyn parser agree on every
   frame, valid or corrupted — the validate-once layer never accepts a frame
   the full parse would reject (or vice versa). *)
let qcheck_accepts_iff_dyn =
  QCheck.Test.make ~name:"reader accepts a frame iff Dyn parse does" ~count:300
    QCheck.small_nat (fun seed ->
      let rng = Sim.Rng.create ~seed:(seed * 17 + 3) in
      let bytes =
        if Sim.Rng.bool rng 0.5 then Test_fuzz.gen_bytes rng
        else Test_fuzz.gen_mutated rng
      in
      let buf = Test_fuzz.make_buf bytes in
      let dyn_ok =
        match Cornflakes.Format_.deserialize ~cpu:none schema everything buf with
        | d ->
            Wire.Dyn.release ~cpu:none d;
            true
        | exception Cornflakes.Format_.Malformed _ -> false
      in
      let reader_ok =
        let r = Wire.Reader.create everything in
        match
          Wire.Reader.validate r buf;
          deep_read r
        with
        | () -> true
        | exception Wire.Reader.Invalid _ -> false
      in
      if dyn_ok <> reader_ok then
        QCheck.Test.fail_reportf "dyn %b vs reader %b on %d-byte frame" dyn_ok
          reader_ok (String.length bytes);
      true)

(* --- targeted malformed frames ----------------------------------------- *)

let serialize_string msg =
  let env = Test_format.make_env () in
  let _plan, buf = Test_format.serialize env msg in
  Mem.View.to_string (Mem.Pinned.Buf.view buf)

let sample_frame () =
  let env = Test_format.make_env () in
  let msg = Wire.Dyn.create everything in
  Wire.Dyn.set_int msg "id" 42L;
  Wire.Dyn.set_payload msg "name" (Test_format.payload env `Literal "zanzibar");
  for i = 1 to 3 do
    Wire.Dyn.append msg "nums" (Wire.Dyn.Int (Int64.of_int i))
  done;
  serialize_string msg

let set_u32_le b off v =
  for k = 0 to 3 do
    Bytes.set b (off + k) (Char.chr ((v lsr (8 * k)) land 0xff))
  done

let expect_invalid what bytes =
  let buf = Test_fuzz.make_buf bytes in
  let r = Wire.Reader.create everything in
  match Wire.Reader.validate r buf with
  | () -> Alcotest.failf "%s: validator accepted a corrupt frame" what
  | exception Wire.Reader.Invalid _ -> ()

let test_rejects_truncated () =
  let s = sample_frame () in
  (* Every proper prefix that cuts into the header block must be rejected;
     none may crash. *)
  expect_invalid "empty" "";
  expect_invalid "half a count word" (String.sub s 0 3);
  expect_invalid "bitmap only" (String.sub s 0 8);
  expect_invalid "mid-slot" (String.sub s 0 13)

let test_rejects_bad_bitmap () =
  let s = sample_frame () in
  let b = Bytes.of_string s in
  (* Bitmap word count that disagrees with the schema. *)
  set_u32_le b 0 99;
  expect_invalid "bitmap word count" (Bytes.to_string b);
  (* Claim every field present: the slot table would overrun the object. *)
  let b = Bytes.of_string s in
  set_u32_le b 4 0x7f;
  expect_invalid "lying bitmap" (Bytes.to_string b)

let test_rejects_overhanging_slot () =
  let s = sample_frame () in
  (* Fields id(0), name(2), nums(6) are present: slots at 8, 16, 24. Point
     name's payload past the end of the object. *)
  let b = Bytes.of_string s in
  set_u32_le b (16 + 4) 100000;
  expect_invalid "payload length overhang" (Bytes.to_string b);
  let b = Bytes.of_string s in
  set_u32_le b 24 (String.length s - 4);
  expect_invalid "repeated table overhang" (Bytes.to_string b)

(* --- RX lifecycle under RefSan ----------------------------------------- *)

module Refsan = Sanitizer.Refsan

let with_refsan f =
  let was = Refsan.is_enabled () in
  Refsan.reset ();
  Refsan.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Refsan.set_enabled was;
      Refsan.reset ())

(* A held [Rc_view] pins its RX ring slot; releasing it recycles the slot;
   a view still held at quiesce is a RefSan leak naming its site. *)
let test_rx_view_lifecycle () =
  with_refsan (fun () ->
      let engine = Sim.Engine.create () in
      let fabric = Net.Fabric.create engine in
      let space = Mem.Addr_space.create () in
      let registry = Mem.Registry.create space in
      let ep1 = Net.Endpoint.create ~cpu:none fabric registry ~id:1 in
      let ep2 = Net.Endpoint.create ~cpu:none fabric registry ~id:2 in
      let held = ref None in
      Net.Endpoint.set_rx ep2 (fun ~src:_ buf ->
          (* Retain a slice past the callback, then drop the delivery
             reference — from here the view alone keeps the slot pinned. *)
          held :=
            Some
              (Wire.Rc_view.of_buf ~cpu:none ~site:"test.rx_view" buf ~off:0
                 ~len:(Mem.Pinned.Buf.len buf));
          Mem.Pinned.Buf.decr_ref ~cpu:none ~site:"test.rx_deliver_done" buf);
      Net.Endpoint.send_string ep1 ~dst:2 "twelve bytes";
      Sim.Engine.run_all engine;
      let view =
        match !held with
        | Some v -> v
        | None -> Alcotest.fail "no delivery"
      in
      Alcotest.(check int)
        "held view pins the ring slot" 1
        (Net.Endpoint.rx_outstanding ep2);
      Alcotest.(check bool) "view still live" true (Wire.Rc_view.is_live view);
      Alcotest.(check string)
        "view reads the delivered bytes" "twelve bytes"
        (Mem.View.to_string (Wire.Rc_view.view view));
      (* The leak is visible while the view is parked... *)
      let leaks = Refsan.leaks () in
      Alcotest.(check int) "one outstanding buffer" 1 (List.length leaks);
      (match leaks with
      | [ l ] ->
          Alcotest.(check bool)
            "leak names the view site" true
            (List.mem_assoc "test.rx_view" l.Refsan.l_ref_sites)
      | _ -> ());
      (* ...and releasing the view recycles the slot and clears the ledger. *)
      Wire.Rc_view.release ~cpu:none ~site:"test.rx_view_release" view;
      Alcotest.(check int)
        "slot recycled at refcount 0" 0
        (Net.Endpoint.rx_outstanding ep2);
      Alcotest.(check bool) "view dead" false (Wire.Rc_view.is_live view);
      Alcotest.(check int) "no leaks after release" 0
        (List.length (Refsan.leaks ())))

(* The recycled slot really is reused: after release, a further delivery
   succeeds with the pool back at full capacity (no slot was lost). *)
let test_rx_slot_reuse () =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let ep1 = Net.Endpoint.create ~cpu:none fabric registry ~id:1 in
  let ep2 = Net.Endpoint.create ~cpu:none fabric registry ~id:2 in
  let got = ref 0 in
  Net.Endpoint.set_rx ep2 (fun ~src:_ buf ->
      incr got;
      let v =
        Wire.Rc_view.of_buf ~cpu:none ~site:"test.reuse" buf ~off:0
          ~len:(Mem.Pinned.Buf.len buf)
      in
      Mem.Pinned.Buf.decr_ref ~cpu:none buf;
      Wire.Rc_view.release ~cpu:none v);
  for i = 1 to 50 do
    Net.Endpoint.send_string ep1 ~dst:2 (Printf.sprintf "frame %04d" i)
  done;
  Sim.Engine.run_all engine;
  Alcotest.(check int) "all frames delivered" 50 !got;
  Alcotest.(check int) "no slots pinned" 0 (Net.Endpoint.rx_outstanding ep2)

(* A generated [read_folded] falls back to [validate] on any frame that is
   not all-present; the fallback must not charge the validator call twice.
   A [Resp] carrying only its id is such a frame. *)
let test_read_folded_fallback_costs_validate () =
  let env = Test_format.make_env () in
  let msg = Apps.Kv_rpc.Resp.create () in
  Apps.Kv_rpc.Resp.set_id msg 7L;
  let _plan, buf = Test_format.serialize env (Apps.Kv_rpc.Resp.to_dyn msg) in
  let cycles read =
    let cpu = Memmodel.Cpu.create Memmodel.Params.default in
    read (Apps.Kv_rpc.Resp.reader ~cpu ()) buf;
    Memmodel.Cpu.cycles cpu
  in
  let folded = cycles Apps.Kv_rpc.Resp.read_folded in
  let generic = cycles Wire.Reader.validate in
  Alcotest.(check (float 0.)) "same cycles as validate" generic folded

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_reader_equals_dyn;
    QCheck_alcotest.to_alcotest qcheck_accepts_iff_dyn;
    Alcotest.test_case "rejects truncated frames" `Quick test_rejects_truncated;
    Alcotest.test_case "rejects bad bitmaps" `Quick test_rejects_bad_bitmap;
    Alcotest.test_case "rejects overhanging slots" `Quick
      test_rejects_overhanging_slot;
    Alcotest.test_case "rx view lifecycle under refsan" `Quick
      test_rx_view_lifecycle;
    Alcotest.test_case "rx slot recycles and is reused" `Quick
      test_rx_slot_reuse;
    Alcotest.test_case "read_folded fallback costs one validate" `Quick
      test_read_folded_fallback_costs_validate;
  ]

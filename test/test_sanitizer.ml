(* RefSan sanitizer tests: injected lifecycle bugs must each produce a
   diagnostic naming the guilty site labels, a balanced run must stay
   clean, and the schema lint must flag the classic schema mistakes. *)

(* Tests run unmetered unless they check a charge. *)
let none = Memmodel.Cpu.none

module Refsan = Sanitizer.Refsan
module Report = Sanitizer.Report
module Lint = Sanitizer.Lint

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* Run [f] with the sanitizer enabled on a fresh ledger; always restore the
   previous switch state and drop the test's ledger afterwards so suites
   stay independent. *)
let with_san f =
  let was = Refsan.is_enabled () in
  Refsan.reset ();
  Refsan.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Refsan.set_enabled was;
      Refsan.reset ())
    f

let fresh_pool ?(classes = [ (256, 32) ]) () =
  let space = Mem.Addr_space.create () in
  Mem.Pinned.Pool.create space ~name:"san-test" ~classes

let diag_of kind =
  List.find_opt
    (fun (d : Refsan.diag) -> d.Refsan.d_kind = kind)
    (Refsan.diagnostics ())

(* --- Injected bugs ----------------------------------------------------- *)

let test_leak_names_sites () =
  with_san (fun () ->
      let pool = fresh_pool () in
      let buf =
        Mem.Pinned.Buf.alloc ~cpu:none ~site:"test.leak_alloc" pool ~len:100
      in
      Mem.Pinned.Buf.incr_ref ~cpu:none ~site:"test.leak_extra_ref" buf;
      (match Refsan.leaks () with
      | [ l ] ->
          Alcotest.(check int) "two unexcused refs" 2 l.Refsan.l_refs;
          Alcotest.(check string)
            "alloc site" "test.leak_alloc" l.Refsan.l_alloc_site;
          Alcotest.(check bool)
            "ref site named" true
            (List.mem_assoc "test.leak_extra_ref" l.Refsan.l_ref_sites)
      | ls -> Alcotest.failf "expected 1 leak, got %d" (List.length ls));
      (* The report renders both sites. *)
      let rendered = String.concat "\n" (Report.leak_lines ()) in
      Alcotest.(check bool)
        "report names alloc site" true
        (contains rendered "test.leak_alloc");
      Alcotest.(check bool)
        "report names ref site" true
        (contains rendered "test.leak_extra_ref");
      Mem.Pinned.Buf.decr_ref ~cpu:none ~site:"test.cleanup" buf;
      Mem.Pinned.Buf.decr_ref ~cpu:none ~site:"test.cleanup" buf)

let test_balanced_run_clean () =
  with_san (fun () ->
      let pool = fresh_pool () in
      let buf =
        Mem.Pinned.Buf.alloc ~cpu:none ~site:"test.alloc" pool ~len:64
      in
      Mem.Pinned.Buf.fill ~cpu:none ~site:"test.fill" buf (String.make 64 'x');
      Mem.Pinned.Buf.incr_ref ~cpu:none ~site:"test.ref" buf;
      Mem.Pinned.Buf.decr_ref ~cpu:none ~site:"test.unref" buf;
      Mem.Pinned.Buf.decr_ref ~cpu:none ~site:"test.done" buf;
      Alcotest.(check bool) "clean" true (Report.clean ()))

let test_double_free_provenance () =
  with_san (fun () ->
      let pool = fresh_pool () in
      let buf =
        Mem.Pinned.Buf.alloc ~cpu:none ~site:"test.df_alloc" pool ~len:64
      in
      Mem.Pinned.Buf.decr_ref ~cpu:none ~site:"test.df_free" buf;
      (match Mem.Pinned.Buf.decr_ref ~cpu:none ~site:"test.df_again" buf with
      | () -> Alcotest.fail "second decr_ref did not raise"
      | exception Mem.Pinned.Use_after_free _ -> ());
      match diag_of Refsan.Double_free with
      | None -> Alcotest.fail "no double-free diagnostic"
      | Some d ->
          Alcotest.(check bool)
            "names the double-freeing site" true
            (contains d.Refsan.d_message "test.df_again");
          Alcotest.(check bool)
            "names the alloc site" true
            (contains d.Refsan.d_message "test.df_alloc");
          Alcotest.(check bool)
            "names the first free site" true
            (contains d.Refsan.d_message "test.df_free"))

let test_underflow_unseen_ref () =
  (* A release the ledger never saw taken: allocate with the sanitizer off,
     then enable it and release. *)
  let was = Refsan.is_enabled () in
  Refsan.set_enabled false;
  let pool = fresh_pool () in
  let buf = Mem.Pinned.Buf.alloc ~cpu:none ~site:"test.uf_alloc" pool ~len:64 in
  Refsan.reset ();
  Refsan.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Refsan.set_enabled was;
      Refsan.reset ())
    (fun () ->
      Mem.Pinned.Buf.decr_ref ~cpu:none ~site:"test.uf_release" buf;
      match diag_of Refsan.Underflow with
      | None -> Alcotest.fail "no underflow diagnostic"
      | Some d ->
          Alcotest.(check bool)
            "names the releasing site" true
            (contains d.Refsan.d_message "test.uf_release"))

let test_use_after_free_history () =
  with_san (fun () ->
      let pool = fresh_pool () in
      let buf =
        Mem.Pinned.Buf.alloc ~cpu:none ~site:"test.uaf_alloc" pool ~len:64
      in
      Mem.Pinned.Buf.fill ~cpu:none ~site:"test.uaf_fill" buf (String.make 64 'y');
      Mem.Pinned.Buf.decr_ref ~cpu:none ~site:"test.uaf_free" buf;
      match Mem.Pinned.Buf.view buf with
      | _ -> Alcotest.fail "view of freed buffer did not raise"
      | exception Mem.Pinned.Use_after_free { history; _ } ->
          Alcotest.(check bool) "history attached" true (history <> []);
          let h = String.concat "\n" history in
          List.iter
            (fun site ->
              Alcotest.(check bool)
                (Printf.sprintf "history names %s" site)
                true (contains h site))
            [ "test.uaf_alloc"; "test.uaf_fill"; "test.uaf_free" ])

let test_write_after_post () =
  with_san (fun () ->
      let pool = fresh_pool () in
      let buf =
        Mem.Pinned.Buf.alloc ~cpu:none ~site:"test.wap_alloc" pool ~len:256
      in
      Mem.Pinned.Buf.fill ~cpu:none ~site:"test.wap_fill" buf (String.make 256 'z');
      let token = Mem.Pinned.Buf.hold ~site:"test.wap_post" buf in
      Alcotest.(check bool) "hold token issued" true (token <> None);
      (* Mutating posted bytes without CoW is the race. *)
      Mem.Pinned.Buf.note_write ~site:"test.wap_write" buf ~off:16 ~len:8;
      (match diag_of Refsan.Write_hazard with
      | None -> Alcotest.fail "no write-after-post diagnostic"
      | Some d ->
          Alcotest.(check bool)
            "names the writing site" true
            (contains d.Refsan.d_message "test.wap_write");
          Alcotest.(check bool)
            "names the posting site" true
            (contains d.Refsan.d_message "test.wap_post"));
      let before = Refsan.hazard_count () in
      (* A copy-on-write pointer over the posted buffer: the post keeps its
         own reference, so the write goes to a fresh clone, race-free... *)
      Mem.Pinned.Buf.incr_ref ~cpu:none ~site:"test.wap_cow_ref" buf;
      let c = Cow_buf.of_buf pool buf in
      Cow_buf.write ~cpu:none c ~off:16 "patched!";
      Alcotest.(check int) "cow write cloned" 1 (Cow_buf.cow_count c);
      Alcotest.(check bool) "clone is a new buffer" true (Cow_buf.buf c != buf);
      Alcotest.(check int) "cow write is no hazard" before
        (Refsan.hazard_count ());
      Cow_buf.release ~cpu:none c;
      (* ...while a raw write on the held bytes still is one... *)
      Mem.Pinned.Buf.note_write ~site:"test.wap_raw" buf ~off:16 ~len:8;
      Alcotest.(check int) "raw write still a hazard" (before + 1)
        (Refsan.hazard_count ());
      let before = Refsan.hazard_count () in
      (* ...and no write is one once the hold is released. *)
      Mem.Pinned.Buf.release_hold token;
      Mem.Pinned.Buf.note_write ~site:"test.wap_late" buf ~off:16 ~len:8;
      Alcotest.(check int) "no further hazards" before (Refsan.hazard_count ());
      Mem.Pinned.Buf.decr_ref ~cpu:none ~site:"test.cleanup" buf)

let test_holds_and_roots_excuse_refs () =
  with_san (fun () ->
      let pool = fresh_pool () in
      let buf =
        Mem.Pinned.Buf.alloc ~cpu:none ~site:"test.alloc" pool ~len:64
      in
      (* In flight: not a leak. *)
      let token = Mem.Pinned.Buf.hold ~site:"test.post" buf in
      Alcotest.(check int) "held buffer excused" 0
        (List.length (Refsan.leaks ()));
      Mem.Pinned.Buf.release_hold token;
      Alcotest.(check int) "released hold leaks again" 1
        (List.length (Refsan.leaks ()));
      (* Rooted (store-owned): not a leak. *)
      Mem.Pinned.Buf.root ~site:"test.store_put" buf;
      Alcotest.(check int) "rooted buffer excused" 0
        (List.length (Refsan.leaks ()));
      Mem.Pinned.Buf.unroot ~site:"test.store_del" buf;
      Mem.Pinned.Buf.decr_ref ~cpu:none ~site:"test.cleanup" buf;
      Alcotest.(check bool) "clean after release" true (Report.clean ()))

(* --- Whole-stack property: a KV run under RefSan is clean --------------- *)

let twitter_rig_is_clean ~seed ~put_fraction () =
  with_san (fun () ->
      let rig = Apps.Rig.create ~n_clients:4 ~seed () in
      let workload = Workload.Twitter.make ~n_keys:64 ~put_fraction () in
      let backend = Apps.Backend.cornflakes () in
      let app = Apps.Kv_app.install rig ~backend ~workload in
      let send ep ~dst ~id = Apps.Kv_app.send_next app ep ~dst ~id in
      let parse_id = Some (fun buf -> Apps.Kv_app.parse_id app buf) in
      let r =
        Loadgen.Driver.closed_loop rig.Apps.Rig.engine
          ~clients:rig.Apps.Rig.clients ~server:Apps.Rig.server_id
          ~outstanding:2 ~duration_ns:600_000 ~warmup_ns:0
          ~rng:rig.Apps.Rig.rng ~send ~parse_id
      in
      Sim.Engine.quiesce rig.Apps.Rig.engine;
      r.Loadgen.Driver.completed > 0
      && Refsan.leaks () = []
      && Refsan.diagnostics () = [])

let test_fig7_twitter_run_clean () =
  Alcotest.(check bool)
    "fig7-style run: 0 leaks, 0 hazards" true
    (twitter_rig_is_clean ~seed:0xc0ffee ~put_fraction:0.08 ())

let prop_twitter_runs_clean =
  QCheck.Test.make ~name:"twitter run under RefSan is clean" ~count:4
    QCheck.(pair small_nat (float_range 0.0 0.5))
    (fun (seed, put_fraction) ->
      twitter_rig_is_clean ~seed:(seed + 1) ~put_fraction ())

(* --- Schema lint -------------------------------------------------------- *)

let lint_of src = Lint.check (Schema.Parser.parse_raw src)

let test_lint_duplicate_field_number () =
  let findings =
    lint_of
      "message M { uint64 id = 1; bytes blob = 1; }"
  in
  match Lint.errors findings with
  | [ f ] ->
      Alcotest.(check bool)
        "flags the duplicate number" true
        (contains f.Lint.text "duplicate field number 1");
      Alcotest.(check bool)
        "names the clashing field" true
        (contains f.Lint.text "id")
  | fs -> Alcotest.failf "expected 1 error, got %d" (List.length fs)

let test_lint_ranges () =
  let findings =
    lint_of
      "message M { uint64 a = 0; uint64 b = 536870912; uint64 c = 19005; }"
  in
  Alcotest.(check int) "two out-of-range errors" 2
    (List.length (Lint.errors findings));
  Alcotest.(check bool)
    "reserved band is a warning" true
    (List.exists
       (fun f -> f.Lint.severity = Lint.Warning && contains f.Lint.text "19000")
       findings)

let test_lint_unresolved_message () =
  let findings = lint_of "message M { Missing thing = 1; }" in
  Alcotest.(check bool)
    "unresolved type flagged" true
    (List.exists
       (fun f -> f.Lint.severity = Lint.Error && contains f.Lint.text "Missing")
       findings)

let test_lint_eligibility_report () =
  let findings =
    lint_of
      "message GetResp { uint64 id = 1; repeated bytes vals = 2; }"
  in
  let info_for name =
    List.find_opt
      (fun f -> f.Lint.severity = Lint.Info && f.Lint.field_name = Some name)
      findings
  in
  (match info_for "vals" with
  | Some f ->
      Alcotest.(check bool)
        "bytes field eligible" true
        (contains f.Lint.text "zero-copy eligible")
  | None -> Alcotest.fail "no eligibility line for vals");
  match info_for "id" with
  | Some f ->
      Alcotest.(check bool)
        "scalar field ineligible" true
        (contains f.Lint.text "ineligible")
  | None -> Alcotest.fail "no eligibility line for id"

let test_lint_clean_schema_has_no_errors () =
  let findings =
    lint_of
      "message GetReq { uint64 id = 1; repeated bytes keys = 2; }\n\
       message GetResp { uint64 id = 1; repeated bytes vals = 2; }"
  in
  Alcotest.(check int) "no errors" 0 (List.length (Lint.errors findings))

let suite =
  [
    Alcotest.test_case "leak names sites" `Quick test_leak_names_sites;
    Alcotest.test_case "balanced run is clean" `Quick test_balanced_run_clean;
    Alcotest.test_case "double-free provenance" `Quick
      test_double_free_provenance;
    Alcotest.test_case "underflow on unseen ref" `Quick
      test_underflow_unseen_ref;
    Alcotest.test_case "use-after-free history" `Quick
      test_use_after_free_history;
    Alcotest.test_case "write-after-post race" `Quick test_write_after_post;
    Alcotest.test_case "holds and roots excuse refs" `Quick
      test_holds_and_roots_excuse_refs;
    Alcotest.test_case "fig7 twitter run clean" `Quick
      test_fig7_twitter_run_clean;
    QCheck_alcotest.to_alcotest prop_twitter_runs_clean;
    Alcotest.test_case "lint duplicate field number" `Quick
      test_lint_duplicate_field_number;
    Alcotest.test_case "lint number ranges" `Quick test_lint_ranges;
    Alcotest.test_case "lint unresolved message type" `Quick
      test_lint_unresolved_message;
    Alcotest.test_case "lint eligibility report" `Quick
      test_lint_eligibility_report;
    Alcotest.test_case "lint clean schema" `Quick
      test_lint_clean_schema_has_no_errors;
  ]

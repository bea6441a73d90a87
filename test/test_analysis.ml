(* Tests for StatCheck (lib/analysis): spec parsing, the four known-bad
   fixtures (golden finding ids), a clean run over the real tree (generated
   modules included), IR verification of the generated modules, baseline
   reconciliation, and the site-label format shared with RefSan. *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* dune runs tests in _build/default/test; the copied source tree (lib/,
   bin/), the build-generated modules and the declared deps (analysis/,
   examples/) live one level up. *)
let root = Filename.concat (Sys.getcwd ()) ".."

let path p = Filename.concat root p

let have p = Sys.file_exists (path p)

let load_spec () = Analysis.Check.load_specs (path "analysis/specs")

(* --- spec language ------------------------------------------------------ *)

let test_spec_parse () =
  let spec =
    Analysis.Spec.parse
      "# comment\n\
       op Mem.Pinned.Buf.alloc alloc\n\
       op Nic.Device.txd_push post subject=1\n\
       par Par.Pool.map subject=0\n\
       stateful Workload.Cdn.make\n\
       assume Tcp.rtx_queue\n\
       allow_capture Exp.run tally\n"
  in
  Alcotest.(check bool) "op by full path" true
    (Analysis.Spec.find_op spec [ "Mem"; "Pinned"; "Buf"; "alloc" ] <> None);
  (* suffix matching: library-internal spelling hits the same entry *)
  Alcotest.(check bool) "op by suffix" true
    (Analysis.Spec.find_op spec [ "Buf"; "alloc" ] <> None);
  (* one component is never enough *)
  Alcotest.(check bool) "single component rejected" true
    (Analysis.Spec.find_op spec [ "alloc" ] = None);
  Alcotest.(check bool) "subject parsed" true
    (match Analysis.Spec.find_op spec [ "Nic"; "Device"; "txd_push" ] with
    | Some e -> e.Analysis.Spec.subject = Analysis.Spec.Pos 1
    | None -> false);
  Alcotest.(check bool) "par entry" true
    (Analysis.Spec.find_par spec [ "Par"; "Pool"; "map" ] <> None);
  Alcotest.(check bool) "stateful" true
    (Analysis.Spec.is_stateful spec [ "Workload"; "Cdn"; "make" ]);
  Alcotest.(check bool) "assume" true
    (Analysis.Spec.is_assumed spec "Tcp.rtx_queue");
  Alcotest.(check bool) "allow_capture" true
    (Analysis.Spec.is_capture_allowed spec ~func:"Exp.run" ~var:"tally")

let test_spec_rejects_junk () =
  Alcotest.check_raises "unknown directive"
    (Analysis.Spec.Parse_error "line 1: unknown directive \"frobnicate\"")
    (fun () -> ignore (Analysis.Spec.parse "frobnicate Foo.bar"))

(* --- the four known-bad fixtures (golden finding ids) ------------------- *)

let run_fixture name =
  let p = path (Filename.concat "analysis/fixtures" name) in
  Analysis.Check.run_file ~spec:(load_spec ()) p

let ids findings = List.map (fun f -> f.Analysis.Finding.id) findings

let check_fixture name expected () =
  if not (have "analysis/fixtures") then
    print_endline "(analysis/fixtures not found; skipping)"
  else begin
    let found = ids (run_fixture name) in
    List.iter
      (fun want ->
        Alcotest.(check bool)
          (Printf.sprintf "%s raises %s" name want)
          true (List.mem want found))
      expected;
    (* all fixture findings are errors: the CI grep gates on them *)
    Alcotest.(check bool) "all errors" true
      (List.for_all
         (fun f -> f.Analysis.Finding.severity = Analysis.Finding.Error)
         (run_fixture name))
  end

let test_fixture_lifecycle =
  check_fixture "bad_lifecycle.ml" [ "SC-LC-LEAK"; "SC-LC-DOUBLE" ]

let test_fixture_wap =
  check_fixture "bad_write_after_post.ml" [ "SC-LC-WAP"; "SC-LC-RBA" ]

let test_fixture_par =
  check_fixture "bad_par_capture.ml" [ "SC-PAR-CAPTURE"; "SC-PAR-MUT" ]

let test_fixture_alloc = check_fixture "bad_alloc_free.ml" [ "SC-ALLOC" ]

(* The closure rules: a partial application handed to an iterator and a
   local [let rec] that captures variables are one finding each; the
   allocation-free shapes next to them (tuple match, closed local
   function, top-level iteratee) are none. *)
let test_fixture_closures () =
  if not (have "analysis/fixtures") then
    print_endline "(analysis/fixtures not found; skipping)"
  else begin
    let messages name =
      List.map (fun f -> f.Analysis.Finding.message) (run_fixture name)
    in
    let bad = messages "bad_iter_capture.ml" in
    let mentions needle m =
      let n = String.length needle and h = String.length m in
      let rec go i = i + n <= h && (String.sub m i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check int) "two findings" 2 (List.length bad);
    Alcotest.(check bool) "partial application to List.iter" true
      (List.exists (mentions "partial application to List.iter") bad);
    Alcotest.(check bool) "capturing local let rec" true
      (List.exists (mentions "go captures msg, n, name") bad);
    Alcotest.(check (list string)) "allocation-free shapes pass" []
      (messages "ok_alloc_free.ml")
  end

let test_fixture_cluster =
  check_fixture "bad_cluster_cursor.ml" [ "SC-PAR-CAPTURE"; "SC-PAR-MUT" ]

let test_fixture_rx_view = check_fixture "bad_rx_view.ml" [ "SC-LC-UAF" ]

(* --- clean run over the real tree --------------------------------------- *)

let test_real_tree_clean () =
  if not (have "lib/core/send.ml" && have "analysis/specs") then
    print_endline "(source tree not found; skipping)"
  else begin
    let spec = load_spec () in
    let files =
      Analysis.Check.discover_files
        ~roots:[ path "lib"; path "bin"; path "examples" ]
    in
    Alcotest.(check bool) "found a realistic number of sources" true
      (List.length files > 40);
    (* Generated modules exist only in the build tree: the run must cover
       each one, next to the sidecar its IR pass verifies it against. *)
    List.iter
      (fun (_, gen) ->
        Alcotest.(check bool) (gen ^ ".ml analyzed") true
          (List.mem (path (gen ^ ".ml")) files);
        Alcotest.(check bool) (gen ^ ".ir present") true (have (gen ^ ".ir")))
      Test_codegen.generated_modules;
    let findings = Analysis.Check.run_files ~spec files in
    let errs = Analysis.Finding.errors findings in
    if errs <> [] then
      Alcotest.failf "expected a clean tree, got:\n%s"
        (String.concat "\n" (List.map Analysis.Finding.to_string errs))
  end

(* --- IR verification of the generated modules --------------------------- *)

let test_ir_verifies_generated_module () =
  (* Every build-generated pair must verify clean... *)
  List.iter
    (fun (_, gen) ->
      let findings =
        Analysis.Check.run_file ~spec:(load_spec ()) (path (gen ^ ".ml"))
      in
      Alcotest.(check (list string)) (gen ^ " verifies") [] (ids findings))
    Test_codegen.generated_modules;
  (* ...and a declared-but-missing binding must fail. *)
  let entries =
    Analysis.Ircheck.parse
      "fn Getreq.nonexistent role=setter callee=Wire.Dyn.set\n"
  in
  match Analysis.Loader.load (path "examples/kv_msgs.ml") with
  | Error f -> Alcotest.failf "parse failed: %s" (Analysis.Finding.to_string f)
  | Ok src ->
      let bad = Analysis.Ircheck.check_source ~ir_path:"test.ir" entries src in
      Alcotest.(check (list string)) "missing binding caught"
        [ "SC-IR-MISSING" ] (ids bad)

(* --- baseline reconciliation -------------------------------------------- *)

let test_baseline_roundtrip_and_staleness () =
  let f ~id ~site =
    Analysis.Finding.make ~id ~severity:Analysis.Finding.Error ~pass:"test"
      ~site ~file:"x.ml" ~line:3 "synthetic"
  in
  let a = f ~id:"SC-LC-LEAK" ~site:"M.f" and b = f ~id:"SC-ALLOC" ~site:"M.g" in
  let tmp = Filename.temp_file "statcheck" ".json" in
  Analysis.Check.baseline_save tmp [ a; b ];
  let loaded = Analysis.Check.baseline_load tmp in
  Sys.remove tmp;
  Alcotest.(check int) "two fingerprints" 2 (List.length loaded);
  (* both findings still fire: tolerated, gate passes *)
  let r = Analysis.Check.reconcile ~baseline:loaded [ a; b ] in
  Alcotest.(check bool) "tolerated passes" true (Analysis.Check.passed r);
  Alcotest.(check int) "nothing fresh" 0 (List.length r.Analysis.Check.fresh);
  (* one fixed: its baseline entry is stale, gate fails until removed *)
  let r = Analysis.Check.reconcile ~baseline:loaded [ a ] in
  Alcotest.(check bool) "stale entry fails" false (Analysis.Check.passed r);
  Alcotest.(check int) "one stale" 1 (List.length r.Analysis.Check.stale);
  (* a new finding is fresh and fails *)
  let c = f ~id:"SC-PAR-MUT" ~site:"M.h" in
  let r = Analysis.Check.reconcile ~baseline:loaded [ a; b; c ] in
  Alcotest.(check bool) "fresh finding fails" false (Analysis.Check.passed r);
  Alcotest.(check int) "one fresh" 1 (List.length r.Analysis.Check.fresh)

let test_fingerprint_ignores_line () =
  let f line =
    Analysis.Finding.make ~id:"SC-LC-LEAK" ~severity:Analysis.Finding.Error
      ~pass:"lifecycle" ~site:"M.f" ~file:"x.ml" ~line "moved"
  in
  Alcotest.(check string) "moving code does not churn the baseline"
    (Analysis.Finding.fingerprint (f 10))
    (Analysis.Finding.fingerprint (f 99))

(* --- shared site-label format (StatCheck <-> RefSan) -------------------- *)

let test_site_label_shared_format () =
  Alcotest.(check string) "rendering" "[site Tcp.rtx_queue]"
    (Sanitizer.Report.site_label "Tcp.rtx_queue");
  let f =
    Analysis.Finding.make ~id:"SC-LC-RBA" ~severity:Analysis.Finding.Error
      ~pass:"lifecycle" ~site:"Tcp.rtx_queue" ~file:"lib/tcp/tcp.ml" ~line:1
      "released before cumulative ACK"
  in
  Alcotest.(check bool) "finding uses the same label" true
    (contains (Analysis.Finding.to_string f) "[site Tcp.rtx_queue]")

(* --- schema crossover lint (satellite: lint vs probe size table) -------- *)

let test_max_size_option_parses () =
  let schema =
    Schema.Parser.parse
      "message M { bytes small = 1 [max_size=128]; bytes big = 2 \
       [max_size=4096]; uint64 id = 3; }"
  in
  let m = Schema.Desc.message schema "M" in
  Alcotest.(check (option int)) "small bound" (Some 128)
    (Schema.Desc.field m "small").Schema.Desc.max_size;
  Alcotest.(check (option int)) "big bound" (Some 4096)
    (Schema.Desc.field m "big").Schema.Desc.max_size;
  Alcotest.(check (option int)) "unbounded" None
    (Schema.Desc.field m "id").Schema.Desc.max_size

let test_crossover_lint () =
  let schema =
    Schema.Parser.parse
      "message M { bytes small = 1 [max_size=128]; bytes big = 2 \
       [max_size=4096]; }"
  in
  let crossover = Sanitizer.Crossover.crossover_bytes () in
  Alcotest.(check bool) "calibrated crossover sits in the probe grid" true
    (List.mem crossover Sanitizer.Crossover.probe_sizes);
  let below f =
    f.Sanitizer.Lint.field_name = Some "small"
    && contains f.Sanitizer.Lint.text "crossover"
  in
  let findings = Sanitizer.Lint.check schema in
  (match List.find_opt below findings with
  | Some f ->
      Alcotest.(check bool) "warning by default" true
        (f.Sanitizer.Lint.severity = Sanitizer.Lint.Warning)
  | None -> Alcotest.fail "below-crossover field not flagged");
  (* --strict promotes to error; the in-bounds field stays silent *)
  let strict = Sanitizer.Lint.check ~strict:true schema in
  Alcotest.(check bool) "strict promotes" true
    (List.exists
       (fun f -> below f && f.Sanitizer.Lint.severity = Sanitizer.Lint.Error)
       strict);
  Alcotest.(check bool) "big field not flagged" true
    (not
       (List.exists
          (fun f ->
            f.Sanitizer.Lint.field_name = Some "big"
            && contains f.Sanitizer.Lint.text "crossover")
          findings))

let suite =
  [
    Alcotest.test_case "spec parse + lookups" `Quick test_spec_parse;
    Alcotest.test_case "spec rejects junk" `Quick test_spec_rejects_junk;
    Alcotest.test_case "fixture: lifecycle leak/double" `Quick
      test_fixture_lifecycle;
    Alcotest.test_case "fixture: write-after-post / release-before-ACK" `Quick
      test_fixture_wap;
    Alcotest.test_case "fixture: par capture (exp_tab2 bug)" `Quick
      test_fixture_par;
    Alcotest.test_case "fixture: alloc on hot path" `Quick test_fixture_alloc;
    Alcotest.test_case "fixture: closures on hot path" `Quick
      test_fixture_closures;
    Alcotest.test_case "fixture: cluster cursor shared across shards" `Quick
      test_fixture_cluster;
    Alcotest.test_case "fixture: rx view outlives recycle" `Quick
      test_fixture_rx_view;
    Alcotest.test_case "real tree is clean" `Quick test_real_tree_clean;
    Alcotest.test_case "IR verifies generated module" `Quick
      test_ir_verifies_generated_module;
    Alcotest.test_case "baseline roundtrip + staleness" `Quick
      test_baseline_roundtrip_and_staleness;
    Alcotest.test_case "fingerprint ignores line" `Quick
      test_fingerprint_ignores_line;
    Alcotest.test_case "site label shared with refsan" `Quick
      test_site_label_shared_format;
    Alcotest.test_case "max_size option parses" `Quick
      test_max_size_option_parses;
    Alcotest.test_case "crossover lint + strict" `Quick test_crossover_lint;
  ]

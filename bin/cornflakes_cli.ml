(* Command-line interface: run experiments, compile schemas (codegen),
   validate schemas, inspect workload generators, and pretty-print /
   replay Faultline fault plans. *)

open Cmdliner

let transport_arg =
  Arg.(
    value
    & opt (enum [ ("udp", `Udp); ("tcp", `Tcp) ]) `Udp
    & info [ "transport" ] ~docv:"udp|tcp"
        ~doc:
          "Datapath for every experiment rig: kernel-bypass UDP (default; \
           buffers released at NIC completion) or the Demikernel-style TCP \
           stack (buffers held until cumulative ACK). Experiments that pin \
           a transport (fig9, tcp) ignore this.")

(* --- experiments ------------------------------------------------------- *)

let experiments_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT"
           ~doc:"Experiment ids (default: all). See --list.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Use reduced run budgets.")
  in
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains for independent experiment configs.")
  in
  let run ids quick list jobs transport =
    if list then
      List.iter
        (fun (e : Experiments.Registry.entry) ->
          Printf.printf "%-10s %s\n" e.Experiments.Registry.id
            e.Experiments.Registry.title)
        Experiments.Registry.all
    else begin
      Experiments.Util.set_quick quick;
      Apps.Rig.set_default_transport transport;
      Par.Pool.set_default_jobs (max 1 jobs);
      let entries =
        match ids with
        | [] -> Experiments.Registry.all
        | ids ->
            List.map
              (fun id ->
                match Experiments.Registry.find id with
                | Some e -> e
                | None ->
                    Printf.eprintf "unknown experiment %S; try --list\n" id;
                    exit 1)
              ids
      in
      List.iter
        (fun (e : Experiments.Registry.entry) ->
          Printf.printf "== [%s] %s ==\n%!" e.Experiments.Registry.id
            e.Experiments.Registry.title;
          e.Experiments.Registry.run ())
        entries
    end
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Run paper-reproduction experiments")
    Term.(const run $ ids $ quick $ list $ jobs $ transport_arg)

(* --- parallel harness: all / per-figure / bench ------------------------- *)

(* Shared flags. --jobs defaults to cores-1 (clamped to 1): independent
   experiment configs fan out over that many worker domains, and the merge
   is deterministic, so output is byte-identical to --jobs 1. *)

let jobs_arg =
  Arg.(
    value
    & opt int (Par.Pool.recommended_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for independent experiment configs (1 = serial; \
           default: available cores minus one). Results are byte-identical \
           at any width.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use reduced run budgets.")

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:"Run under the RefSan ledger (forces serial execution).")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N" ~doc:"Seed every Sim.Rng for reproducible runs.")

let setup ~quick ~sanitize ~seed ~jobs ~transport =
  Experiments.Util.set_quick quick;
  if sanitize then Cornflakes.Config.set_sanitize true;
  (match seed with Some s -> Apps.Rig.set_default_seed s | None -> ());
  Apps.Rig.set_default_transport transport;
  Par.Pool.set_default_jobs (max 1 jobs)

let run_entries entries =
  List.iter
    (fun (e : Experiments.Registry.entry) ->
      Printf.printf "== [%s] %s ==\n%!" e.Experiments.Registry.id
        e.Experiments.Registry.title;
      e.Experiments.Registry.run ())
    entries;
  if Cornflakes.Config.sanitize () then
    print_endline ("\n" ^ Sanitizer.Report.grand_total_line ())

let all_cmd =
  let run quick sanitize seed jobs transport =
    setup ~quick ~sanitize ~seed ~jobs ~transport;
    run_entries Experiments.Registry.all
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:"Run every paper-reproduction experiment (honors --jobs)")
    Term.(
      const run $ quick_arg $ sanitize_arg $ seed_arg $ jobs_arg
      $ transport_arg)

(* One subcommand per registry entry (`cornflakes fig3 --quick --jobs 4`),
   except ids that would shadow an existing top-level command — those stay
   reachable via `experiments <id>`. *)
let reserved_ids =
  [
    "experiments"; "all"; "bench"; "compile"; "check"; "lint"; "trace";
    "faults"; "probe";
  ]

let figure_cmds =
  List.filter_map
    (fun (e : Experiments.Registry.entry) ->
      if List.mem e.Experiments.Registry.id reserved_ids then None
      else
        let run quick sanitize seed jobs transport =
          setup ~quick ~sanitize ~seed ~jobs ~transport;
          run_entries [ e ]
        in
        Some
          (Cmd.v
             (Cmd.info e.Experiments.Registry.id
                ~doc:e.Experiments.Registry.title)
             Term.(
               const run $ quick_arg $ sanitize_arg $ seed_arg $ jobs_arg
               $ transport_arg)))
    Experiments.Registry.all

let bench_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Write BENCH_micro.json (ns/op + minor words/op).")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Compare minor words/op to a committed baseline (exit 1 on any \
             >20% regression) and report ns/op deltas.")
  in
  let run quick seed jobs json baseline =
    Par.Pool.set_default_jobs (max 1 jobs);
    let results =
      Microbench.Suite.run ~quick ~seed:(Option.value seed ~default:1) ()
    in
    if json then Microbench.Suite.write_json results;
    match baseline with
    | Some path -> Microbench.Suite.gate_against_baseline results ~baseline_path:path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Bechamel microbenchmarks of the serializer hot paths (words/op \
          measured across --jobs worker domains)")
    Term.(const run $ quick_arg $ seed_arg $ jobs_arg $ json $ baseline)

(* --- schema tools ------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let compile_cmd =
  let input =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCHEMA"
           ~doc:"Schema file to compile.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write generated OCaml here (default: stdout).")
  in
  let ir =
    Arg.(value & opt (some string) None & info [ "ir" ] ~docv:"FILE"
           ~doc:
             "Also write the ownership-IR sidecar here (one line per \
              generated binding; `check` verifies the generated module \
              against it).")
  in
  let run input output ir =
    match Codegen.Compile.file ?output ?ir input with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok schema ->
        Option.iter
          (fun path ->
            Printf.printf "wrote %s (%d messages, %d services)\n" path
              (List.length schema.Schema.Desc.messages)
              (List.length schema.Schema.Desc.services))
          output;
        Option.iter (Printf.printf "wrote %s\n") ir
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Generate OCaml accessors from a schema (--ir also emits the \
          ownership-IR sidecar for `check`)")
    Term.(const run $ input $ output $ ir)

(* --- StatCheck: static analysis over the OCaml sources ------------------ *)

let check_cmd =
  let files =
    Arg.(value & pos_all string [] & info [] ~docv:"FILE"
           ~doc:"OCaml source files to analyze (default with --all: the \
                 whole tree).")
  in
  let all =
    Arg.(value & flag & info [ "all" ]
           ~doc:
             (Printf.sprintf "Analyze every .ml under %s."
                (String.concat ", " Analysis.Check.default_roots)))
  in
  let specs =
    Arg.(value & opt string Analysis.Check.default_spec_dir
           & info [ "specs" ] ~docv:"DIR"
               ~doc:"Directory of *.spec ownership-spec files.")
  in
  let baseline =
    Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE"
           ~doc:
             (Printf.sprintf
                "Baseline of tolerated finding fingerprints (default %s when \
                 analyzing with --all; none otherwise). Fresh findings fail; \
                 so do stale baseline entries."
                Analysis.Check.default_baseline))
  in
  let update_baseline =
    Arg.(value & flag & info [ "update-baseline" ]
           ~doc:"Rewrite the baseline to exactly the current findings.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit findings as JSON.")
  in
  let run files all specs baseline update_baseline json =
    let paths =
      if all then
        Analysis.Check.discover_files ~roots:Analysis.Check.default_roots
        @ files
      else files
    in
    if paths = [] then begin
      Printf.eprintf "check: no input files (pass FILEs or --all)\n";
      exit 2
    end;
    let spec = Analysis.Check.load_specs specs in
    let findings = Analysis.Check.run_files ~spec paths in
    let baseline_path =
      match baseline with
      | Some p -> Some p
      | None -> if all then Some Analysis.Check.default_baseline else None
    in
    if update_baseline then begin
      match baseline_path with
      | None ->
          Printf.eprintf "check: --update-baseline needs --baseline or --all\n";
          exit 2
      | Some path ->
          Analysis.Check.baseline_save path findings;
          Printf.printf "wrote %s (%d fingerprint%s)\n" path
            (List.length findings)
            (if List.length findings = 1 then "" else "s")
    end
    else begin
      let base =
        match baseline_path with
        | Some p -> Analysis.Check.baseline_load p
        | None -> []
      in
      let r = Analysis.Check.reconcile ~baseline:base findings in
      if json then print_string (Analysis.Finding.list_to_json r.Analysis.Check.all)
      else Analysis.Check.print_report r;
      if not (Analysis.Check.passed r) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "StatCheck: static ownership/lifecycle, domain-race, and \
          hot-path-allocation analysis of the OCaml sources (plus IR \
          verification of generated modules)")
    Term.(
      const run $ files $ all $ specs $ baseline $ update_baseline $ json)

let lint_cmd =
  let input =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCHEMA"
           ~doc:"Schema file to lint.")
  in
  let threshold =
    Arg.(value & opt int 512 & info [ "threshold" ] ~docv:"BYTES"
           ~doc:"Zero-copy threshold used for the eligibility report.")
  in
  let crossover =
    Arg.(
      value
      & opt int (Sanitizer.Crossover.crossover_bytes ())
      & info [ "crossover" ] ~docv:"BYTES"
          ~doc:
            "Measured zc/copy crossover size; zero-copy-eligible fields \
             with a [max_size=N] bound below it are flagged (default: from \
             the committed probe calibration).")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ]
           ~doc:"Promote below-crossover warnings to errors (exit 1).")
  in
  let run input threshold crossover strict =
    (* parse_raw: the lint wants to see duplicate field numbers etc. rather
       than have the parser's validation reject the schema first. *)
    match Schema.Parser.parse_raw (read_file input) with
    | exception Schema.Parser.Parse_error e ->
        Printf.eprintf "parse error: %s\n" e;
        exit 1
    | exception Schema.Lexer.Lex_error { pos; message } ->
        Printf.eprintf "lex error at offset %d: %s\n" pos message;
        exit 1
    | schema ->
        let findings = Sanitizer.Lint.check ~threshold ~crossover ~strict schema in
        List.iter
          (fun f -> print_endline (Sanitizer.Lint.to_string f))
          findings;
        let errs = Sanitizer.Lint.errors findings in
        if errs <> [] then begin
          Printf.printf "%d error%s found\n" (List.length errs)
            (if List.length errs = 1 then "" else "s");
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Lint a schema: duplicate/out-of-range field numbers, bitmap waste, \
          zero-copy crossover bounds (--strict gates), and per-field \
          zero-copy eligibility")
    Term.(const run $ input $ threshold $ crossover $ strict)

(* --- trace inspection --------------------------------------------------- *)

let trace_cmd =
  let which =
    Arg.(
      required
      & pos 0 (some (enum [ ("ycsb", `Ycsb); ("google", `Google);
                            ("twitter", `Twitter); ("cdn", `Cdn) ])) None
      & info [] ~docv:"WORKLOAD" ~doc:"ycsb | google | twitter | cdn")
  in
  let count =
    Arg.(value & opt int 20 & info [ "n" ] ~doc:"Number of ops to sample.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "record" ] ~docv:"FILE"
           ~doc:"Record the sampled ops to a replayable trace file.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.")
  in
  let run which count output seed =
    let wl =
      match which with
      | `Ycsb -> Workload.Ycsb.make ~entries:2 ~entry_size:2048 ()
      | `Google -> Workload.Google.make ~max_vals:8 ()
      | `Twitter -> Workload.Twitter.make ()
      | `Cdn -> Workload.Cdn.make ()
    in
    match output with
    | Some path ->
        Workload.Trace.record wl ~seed ~n:count path;
        Printf.printf "recorded %d ops of %s to %s\n" count
          wl.Workload.Spec.name path
    | None ->
        let rng = Sim.Rng.create ~seed in
        Printf.printf "workload %s (store capacity %d, mean response %.0f B)\n"
          wl.Workload.Spec.name wl.Workload.Spec.store_capacity
          wl.Workload.Spec.mean_response_bytes;
        for _ = 1 to count do
          print_endline (Workload.Trace.op_to_line (wl.Workload.Spec.next rng))
        done
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Sample or record operations from a workload generator")
    Term.(const run $ which $ count $ output $ seed)

(* --- calibration probe -------------------------------------------------- *)

(* The zero-copy/copy crossover probe (paper §3.2.1): saturate a kv rig
   once with everything forced zero-copy and once with everything forced
   copy, per value size. Used to sanity-check the hybrid threshold against
   a given transport/NIC combination rather than to produce figures. *)

let probe_cmd =
  let kv_max backend ~transport ~duration_ns ~entries ~entry_size =
    let rig = Apps.Rig.create ~transport () in
    let n_keys =
      min 262144 (max 8192 (5 * 32 * 1024 * 1024 / (entries * entry_size)))
    in
    let wl = Workload.Ycsb.make ~n_keys ~entries ~entry_size () in
    let app = Apps.Kv_app.install rig ~backend ~workload:wl in
    let send client ~dst ~id = Apps.Kv_app.send_next app client ~dst ~id in
    let parse_id = Some (fun buf -> Apps.Kv_app.parse_id app buf) in
    let r =
      Loadgen.Driver.closed_loop rig.Apps.Rig.engine
        ~clients:rig.Apps.Rig.clients ~server:Apps.Rig.server_id ~outstanding:4
        ~duration_ns ~warmup_ns:(duration_ns * 3 / 10) ~rng:rig.Apps.Rig.rng
        ~send ~parse_id
    in
    r.Loadgen.Driver.achieved_rps
  in
  let run quick seed transport =
    (match seed with Some s -> Apps.Rig.set_default_seed s | None -> ());
    let duration_ns = if quick then 1_500_000 else 8_000_000 in
    (* The size grid is shared with the schema lint's crossover warning
       (Sanitizer.Crossover), so `probe` measures exactly the sizes `lint`
       reasons about. *)
    let sizes =
      if quick then Sanitizer.Crossover.probe_sizes_quick
      else Sanitizer.Crossover.probe_sizes
    in
    Printf.printf "== single-field crossover (%s) ==\n"
      (Apps.Rig.transport_kind_name transport);
    List.iter
      (fun size ->
        let zc =
          kv_max
            (Apps.Backend.cornflakes ~config:Cornflakes.Config.all_zero_copy ())
            ~transport ~duration_ns ~entries:1 ~entry_size:size
        in
        let cp =
          kv_max
            (Apps.Backend.cornflakes ~config:Cornflakes.Config.all_copy ())
            ~transport ~duration_ns ~entries:1 ~entry_size:size
        in
        Printf.printf
          "size %5d: zc %8.0f krps  copy %8.0f krps  zc/copy %.3f\n%!" size
          (zc /. 1e3) (cp /. 1e3) (zc /. cp))
      sizes
  in
  Cmd.v
    (Cmd.info "probe"
       ~doc:
         "Calibration probe: zero-copy vs copy crossover by value size \
          (honors --transport)")
    Term.(const run $ quick_arg $ seed_arg $ transport_arg)

(* --- fault plans -------------------------------------------------------- *)

let faults_cmd =
  let plan_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"PLAN"
          ~doc:
            "Fault plan: a builtin name (see --list) or a plan file (one \
             rule per line, optional 'seed N' line, '#' comments).")
  in
  let seed =
    Arg.(value & opt (some int) None & info [ "seed" ]
           ~doc:"Override the plan seed (replays the same rules under a \
                 different fault schedule).")
  in
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List builtin plans and exit.")
  in
  let replay =
    Arg.(value & flag & info [ "replay" ]
           ~doc:"Run a short kv scenario under the plan twice and verify the \
                 two counter summaries are byte-identical (deterministic \
                 replay by seed).")
  in
  let run plan_arg seed list replay =
    if list then
      List.iter
        (fun name ->
          match Faults.Plan.builtin name with
          | Some p ->
              Printf.printf "%s:\n%s\n" name (Faults.Plan.to_string p)
          | None -> ())
        Faults.Plan.builtin_names
    else begin
      let plan =
        match plan_arg with
        | None ->
            Printf.eprintf "no plan given; try --list for builtins\n";
            exit 1
        | Some name -> (
            match Faults.Plan.builtin ?seed name with
            | Some p -> p
            | None -> (
                if not (Sys.file_exists name) then begin
                  Printf.eprintf
                    "unknown builtin %S and no such file (builtins: %s)\n" name
                    (String.concat ", " Faults.Plan.builtin_names);
                  exit 1
                end;
                match Faults.Plan.parse (read_file name) with
                | exception Faults.Plan.Parse_error e ->
                    Printf.eprintf "plan parse error: %s\n" e;
                    exit 1
                | p -> (
                    match seed with
                    | None -> p
                    | Some seed -> { p with Faults.Plan.seed })))
      in
      print_endline (Faults.Plan.to_string plan);
      if replay then begin
        Printf.printf "\nreplaying (seed %d)...\n%!" plan.Faults.Plan.seed;
        let a = Experiments.Exp_faults.replay_summary ~plan in
        let b = Experiments.Exp_faults.replay_summary ~plan in
        print_string a;
        if a = b then print_endline "replay: byte-identical across two runs"
        else begin
          print_endline "replay: MISMATCH between two runs";
          exit 1
        end
      end
    end
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Pretty-print a Faultline fault plan; --replay verifies \
             deterministic replay by seed")
    Term.(const run $ plan_arg $ seed $ list $ replay)

let () =
  let doc =
    "Cornflakes reproduction toolkit. Subcommands: all (every experiment, \
     parallel via --jobs), per-figure commands (fig2..fig13, tab1..tab5, \
     ablations, replication), experiments (run by id), bench (Bechamel \
     microbenchmarks), compile (generate OCaml accessors + ownership IR \
     from a schema), check (StatCheck static analysis: ownership \
     lifecycle, domain races, hot-path allocations, IR verification), \
     lint (schema lint: validation, zero-copy eligibility, crossover \
     bounds), trace (sample/record workload ops), faults \
     (pretty-print/replay Faultline fault plans), probe (zero-copy vs \
     copy crossover calibration). Most commands take --transport udp|tcp \
     to pick the datapath."
  in
  let info = Cmd.info "cornflakes" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          ([
             experiments_cmd; all_cmd; bench_cmd; compile_cmd; check_cmd;
             lint_cmd; trace_cmd; faults_cmd; probe_cmd;
           ]
          @ figure_cmds)))

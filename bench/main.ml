(* Bench harness: regenerates every table and figure of the paper's
   evaluation (simulated metrics), plus Bechamel microbenchmarks of the real
   serializer hot paths (wall-clock ns/op of this OCaml implementation).

   Usage:
     dune exec bench/main.exe                   # all experiments
     dune exec bench/main.exe -- fig2 tab1      # a subset
     dune exec bench/main.exe -- --quick        # smaller run budgets
     dune exec bench/main.exe -- --sanitize     # run under the RefSan ledger
     dune exec bench/main.exe -- micro          # Bechamel section only
     dune exec bench/main.exe -- --seed 42      # seed every Sim.Rng (rigs +
                                                #   micro) for reproducible
                                                #   runs across machines
     dune exec bench/main.exe -- --jobs 4       # run each experiment's
                                                #   independent configs on 4
                                                #   worker domains (results
                                                #   byte-identical to serial)
     dune exec bench/main.exe -- --json         # write BENCH_micro.json
                                                #   (ns/op + minor words/op)
     dune exec bench/main.exe -- --baseline F   # compare minor words/op to a
                                                #   committed baseline; exit 1
                                                #   on any >20% regression *)

let hr () = print_endline (String.make 78 '=')

let run_experiment (e : Experiments.Registry.entry) =
  hr ();
  Printf.printf "[%s] %s\n%!" e.Experiments.Registry.id
    e.Experiments.Registry.title;
  hr ();
  let t0 = Unix.gettimeofday () in
  e.Experiments.Registry.run ();
  Printf.printf "  (%s finished in %.1fs)\n\n%!" e.Experiments.Registry.id
    (Unix.gettimeofday () -. t0)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = ref false
  and sanitize = ref false
  and json = ref false
  and seed = ref None
  and jobs = ref None
  and baseline = ref None
  and selected = ref []
  and want_micro = ref false in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--sanitize" :: rest ->
        sanitize := true;
        parse rest
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--seed" :: n :: rest ->
        seed := Some (int_of_string n);
        parse rest
    | "--jobs" :: n :: rest ->
        jobs := Some (int_of_string n);
        parse rest
    | "--baseline" :: f :: rest ->
        baseline := Some f;
        parse rest
    | "micro" :: rest ->
        want_micro := true;
        parse rest
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
        Printf.eprintf "unknown or incomplete flag %s\n" a;
        exit 1
    | a :: rest ->
        selected := !selected @ [ a ];
        parse rest
  in
  parse args;
  Experiments.Util.set_quick !quick;
  if !sanitize then Cornflakes.Config.set_sanitize true;
  (match !seed with
  | Some s -> Apps.Rig.set_default_seed s
  | None -> ());
  (match !jobs with
  | Some n -> Par.Pool.set_default_jobs (max 1 n)
  | None -> ());
  let entries =
    match !selected with
    | [] -> Experiments.Registry.all
    | ids ->
        List.map
          (fun id ->
            match Experiments.Registry.find id with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %s (known: %s)\n" id
                  (String.concat ", " (Experiments.Registry.ids ()));
                exit 1)
          ids
  in
  let t0 = Unix.gettimeofday () in
  if not (!want_micro && !selected = []) then List.iter run_experiment entries;
  if !want_micro || !selected = [] then begin
    (* Gated runs take the min of three wall-clock passes so a single noisy
       sample can't trip the ns tolerance. *)
    let rounds = if !baseline <> None then 3 else 1 in
    let results =
      Microbench.Suite.run ~rounds ~quick:!quick
        ~seed:(Option.value !seed ~default:1) ()
    in
    if !json then Microbench.Suite.write_json results;
    match !baseline with
    | Some path -> Microbench.Suite.gate_against_baseline results ~baseline_path:path
    | None -> ()
  end;
  if Cornflakes.Config.sanitize () then
    print_endline ("\n" ^ Sanitizer.Report.grand_total_line ());
  Printf.printf "\nAll done in %.1fs.\n" (Unix.gettimeofday () -. t0)

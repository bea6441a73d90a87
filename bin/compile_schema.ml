(* Build-time schema compiler: the generator the dune rule next to each
   [.proto] runs. Same front end as [cornflakes_cli compile]
   ([Codegen.Compile]) but linked against [schema] and [codegen] only, so
   libraries whose modules it generates can still be dependencies of the
   CLI.

     compile_schema SCHEMA -o MODULE.ml --ir MODULE.ir *)

let () =
  let usage = "compile_schema SCHEMA -o MODULE.ml [--ir MODULE.ir]" in
  let input = ref None and output = ref None and ir = ref None in
  Arg.parse
    [
      ("-o", Arg.String (fun s -> output := Some s), "FILE generated OCaml");
      ("--ir", Arg.String (fun s -> ir := Some s), "FILE ownership-IR sidecar");
    ]
    (fun s -> input := Some s)
    usage;
  match !input with
  | None ->
      prerr_endline usage;
      exit 2
  | Some path -> (
      match Codegen.Compile.file ?output:!output ?ir:!ir path with
      | Ok _ -> ()
      | Error e ->
          prerr_endline (path ^ ": " ^ e);
          exit 1)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let file ?output ?ir path =
  let text = read_file path in
  match Schema.Parser.parse text with
  | exception Schema.Parser.Parse_error e -> Error ("parse error: " ^ e)
  | exception Schema.Lexer.Lex_error { pos; message } ->
      Error (Printf.sprintf "lex error at offset %d: %s" pos message)
  | schema ->
      let source = Emit.module_source ~schema_text:text schema in
      (match output with
      | None -> print_string source
      | Some p -> write_file p source);
      Option.iter (fun p -> write_file p (Emit.ir_source schema)) ir;
      Ok schema

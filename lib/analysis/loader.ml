(* Source loading for StatCheck: parse one .ml file with the compiler's own
   parser (compiler-libs — no new dependencies, and exactly the grammar the
   build accepts) and flatten its structure into a list of named functions,
   one per value binding, with nested-module paths spelled the way RefSan
   site labels are ("Pinned.Buf.alloc"). *)

type func = {
  fn_path : string;  (** e.g. [Endpoint.send_inline] (file module included) *)
  fn_local : string;  (** path without the file-module prefix, e.g. [Buf.alloc] *)
  fn_expr : Parsetree.expression;  (** the binding's right-hand side *)
  fn_attrs : Parsetree.attributes;
  fn_line : int;
}

type source = {
  src_path : string;  (** path as given (used in findings) *)
  src_module : string;  (** capitalized basename *)
  src_structure : Parsetree.structure;
  src_funcs : func list;
}

let module_of_path path =
  String.capitalize_ascii Filename.(remove_extension (basename path))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let line_of_loc (loc : Location.t) = loc.loc_start.pos_lnum

(* Name of a binding pattern: a simple variable, a variable under a type
   constraint, or "_" for unit/wildcard bindings (still analyzed — races in
   top-level initialization code matter too). *)
let rec pattern_name (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt
  | Ppat_constraint (p, _) -> pattern_name p
  | _ -> "_"

let functions_of_structure ~file_module (str : Parsetree.structure) =
  let acc = ref [] in
  let rec walk_structure prefix items =
    List.iter (fun item -> walk_item prefix item) items
  and walk_item prefix (item : Parsetree.structure_item) =
    match item.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            let name = pattern_name vb.pvb_pat in
            let local =
              match prefix with
              | [] -> name
              | p -> String.concat "." p ^ "." ^ name
            in
            acc :=
              {
                fn_path = file_module ^ "." ^ local;
                fn_local = local;
                fn_expr = vb.pvb_expr;
                fn_attrs = vb.pvb_attributes;
                fn_line = line_of_loc vb.pvb_loc;
              }
              :: !acc)
          vbs
    | Pstr_module mb -> walk_module prefix mb
    | Pstr_recmodule mbs -> List.iter (walk_module prefix) mbs
    | _ -> ()
  and walk_module prefix (mb : Parsetree.module_binding) =
    let name = match mb.pmb_name.txt with Some n -> n | None -> "_" in
    walk_module_expr (prefix @ [ name ]) mb.pmb_expr
  and walk_module_expr prefix (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_structure str -> walk_structure prefix str
    | Pmod_constraint (me, _) -> walk_module_expr prefix me
    | Pmod_functor (_, me) -> walk_module_expr prefix me
    | _ -> ()
  in
  walk_structure [] str;
  List.rev !acc

let load path =
  let text = read_file path in
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | str ->
      let file_module = module_of_path path in
      Ok
        {
          src_path = path;
          src_module = file_module;
          src_structure = str;
          src_funcs = functions_of_structure ~file_module str;
        }
  | exception exn ->
      let line =
        match exn with
        | Syntaxerr.Error e -> line_of_loc (Syntaxerr.location_of_error e)
        | _ -> lexbuf.lex_curr_p.pos_lnum
      in
      Error
        (Finding.make ~id:"SC-PARSE" ~severity:Finding.Error ~pass:"parse"
           ~site:(module_of_path path) ~file:path ~line "cannot parse: %s"
           (Printexc.to_string exn))

(* --- shared parsetree helpers used by the passes ----------------------- *)

(* Dotted components of an applied identifier ([Lapply] never names a value
   in this codebase; fold it to its head so matching just fails). *)
let rec longident_components (li : Longident.t) =
  match li with
  | Lident s -> [ s ]
  | Ldot (l, s) -> longident_components l @ [ s ]
  | Lapply (l, _) -> longident_components l

(* Head path of an expression in call position: [Mem.Pinned.Buf.alloc] or a
   record-field transport hook like [tr.Net.Transport.tr_send_inline]
   (the field's qualified name is what the spec matches). *)
let rec head_path (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (longident_components txt)
  | Pexp_field (_, { txt; _ }) -> Some (longident_components txt)
  | Pexp_constraint (e, _) -> head_path e
  | _ -> None

(* The positional-or-labelled subject argument of an application, per the
   spec entry. Positions count only unlabelled arguments. *)
let subject_arg (subject : Spec.subject)
    (args : (Asttypes.arg_label * Parsetree.expression) list) =
  match subject with
  | Spec.Pos n ->
      let rec go i = function
        | [] -> None
        | (Asttypes.Nolabel, e) :: rest ->
            if i = n then Some e else go (i + 1) rest
        | _ :: rest -> go i rest
      in
      go 0 args
  | Spec.Label l ->
      List.find_map
        (function
          | (Asttypes.Labelled l' | Asttypes.Optional l'), e when l' = l ->
              Some e
          | _ -> None)
        args

(* A bare variable name, looking through type constraints. *)
let rec ident_name (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident s; _ } -> Some s
  | Pexp_constraint (e, _) -> ident_name e
  | _ -> None

let has_attr name (attrs : Parsetree.attributes) =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = name) attrs

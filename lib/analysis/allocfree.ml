(* Hot-path allocation lint: a function marked [@@alloc_free] promises the
   steady-state fast path performs no OCaml heap allocation — the property
   the Send fast paths, the Arena recycle hit, and the transport zc hooks
   are built around. This pass rejects syntactic allocation sites in the
   annotated body:

   - tuple / record / non-constant constructor / polymorphic-variant builds
   - array and list literals, list cons
   - closures ([fun]/[function] inside the body — a closure is a heap block)
   - a partial application passed to an iterator ([List.iter (f x) l],
     [Array.iteri], [List.find_opt], ...): the partial application is a
     closure built per call
   - a local [let rec] (or local function) that captures variables of the
     enclosing function: its closure is built per call. A local function
     that captures nothing is a static closure and is not reported; its
     body runs on the hot path and is checked like the rest.
   - [lazy] blocks
   - calls to known allocators ([ref], [Bytes.create], [^], [@], [Printf.*],
     [List.map]-family) or any spec'd [allocates <Path>]

   A [match] on a tuple of expressions ([match (a, b) with ...]) builds no
   tuple: the compiler matches the components directly.

   Exempt, because they are off the steady-state path:
   - arguments of [raise] / [failwith] / [invalid_arg] / [assert] — error
     paths may allocate the exception they die with
   - the then-branch of [if <coldguard> () then ...] where <coldguard> is
     spec'd (e.g. [Sanitizer.Refsan.is_enabled]: diagnostics are not the
     hot path) *)

let attr_name = "alloc_free"

(* Built-in allocator heads; spec [allocates] extends this. *)
let builtin_allocators =
  [
    [ "ref" ];
    [ "^" ];
    [ "@" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
    [ "Bytes"; "of_string" ];
    [ "Bytes"; "to_string" ];
    [ "Bytes"; "sub" ];
    [ "Bytes"; "sub_string" ];
    [ "String"; "concat" ];
    [ "String"; "make" ];
    [ "String"; "sub" ];
    [ "String"; "init" ];
    [ "Array"; "make" ];
    [ "Array"; "init" ];
    [ "Array"; "copy" ];
    [ "Array"; "append" ];
    [ "Array"; "of_list" ];
    [ "Array"; "to_list" ];
    [ "List"; "map" ];
    [ "List"; "mapi" ];
    [ "List"; "rev" ];
    [ "List"; "append" ];
    [ "List"; "concat" ];
    [ "List"; "filter" ];
    [ "List"; "init" ];
    [ "Printf"; "sprintf" ];
    [ "Printf"; "printf" ];
    [ "Printf"; "eprintf" ];
    [ "Printf"; "ksprintf" ];
    [ "Format"; "sprintf" ];
    [ "Format"; "asprintf" ];
    [ "Buffer"; "create" ];
    [ "Buffer"; "contents" ];
    [ "Hashtbl"; "create" ];
  ]

let raising_heads = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* Higher-order iterators whose function argument, when a partial
   application, is a closure allocated at the call. *)
let iterators =
  [
    [ "List"; "iter" ];
    [ "List"; "iteri" ];
    [ "List"; "iter2" ];
    [ "List"; "find_opt" ];
    [ "List"; "exists" ];
    [ "List"; "for_all" ];
    [ "List"; "fold_left" ];
    [ "Array"; "iter" ];
    [ "Array"; "iteri" ];
    [ "Array"; "iter2" ];
    [ "Array"; "exists" ];
    [ "Array"; "for_all" ];
    [ "Array"; "fold_left" ];
  ]

let is_iterator path =
  List.exists (fun p -> Spec.path_matches ~min_match:2 p path) iterators

(* The body under a function's parameter spine: [fun a b -> body]. *)
let rec skip_params (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) | Pexp_constraint (body, _)
    ->
      skip_params body
  | _ -> e

let rec is_function (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, e) | Pexp_constraint (e, _) -> is_function e
  | _ -> false

(* Variables bound by the patterns (parameters, lets, match cases,
   for-loop indices) inside a pattern or an expression. *)
let binders () =
  let vars = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
              vars := txt :: !vars
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  (it, vars)

let pattern_vars p =
  let it, vars = binders () in
  it.pat it p;
  !vars

let bound_vars e =
  let it, vars = binders () in
  it.expr it e;
  !vars

(* Unqualified identifiers [e] refers to. *)
let free_idents (e : Parsetree.expression) =
  let ids = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } -> ids := x :: !ids
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !ids

(* The enclosing function's variables a local function [fn] refers to
   (an approximation that ignores shadowing): [locals] are the names bound
   in the annotated function, [own] the local function's own names. *)
let captures ~locals ~own fn =
  let inner = own @ bound_vars fn in
  List.sort_uniq String.compare
    (List.filter
       (fun x -> List.mem x locals && not (List.mem x inner))
       (free_idents fn))

type ctx = { spec : Spec.t; file : string; site : string }

let is_allocator ctx path =
  List.exists (fun p -> Spec.path_matches ~min_match:1 p path) builtin_allocators
  || Spec.is_allocating ctx.spec path

(* Is this expression a call to a spec'd cold guard, e.g.
   [Sanitizer.Refsan.is_enabled ()]? *)
let is_coldguard_call ctx (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
      match Loader.head_path f with
      | Some path -> Spec.is_coldguard ctx.spec path
      | None -> false)
  | _ -> false

let check_body ctx (body : Parsetree.expression) =
  let locals = bound_vars body in
  let out = ref [] in
  let report ~line fmt =
    Printf.ksprintf
      (fun message ->
        out :=
          Finding.make ~id:"SC-ALLOC" ~severity:Finding.Error ~pass:"alloc"
            ~site:ctx.site ~file:ctx.file ~line "%s" message
          :: !out)
      fmt
  in
  let rec walk (e : Parsetree.expression) =
    let line = e.pexp_loc.loc_start.pos_lnum in
    match e.pexp_desc with
    | Pexp_tuple _ ->
        report ~line "allocates a tuple on the hot path";
        walk_children e
    | Pexp_record _ ->
        report ~line "allocates a record on the hot path";
        walk_children e
    | Pexp_array _ ->
        report ~line "allocates an array literal on the hot path";
        walk_children e
    | Pexp_lazy _ ->
        report ~line "allocates a lazy block on the hot path";
        walk_children e
    | Pexp_construct ({ txt; _ }, Some arg) ->
        let name = String.concat "." (Loader.longident_components txt) in
        report ~line "allocates constructor %s on the hot path" name;
        walk arg
    | Pexp_variant (tag, Some arg) ->
        report ~line "allocates polymorphic variant `%s on the hot path" tag;
        walk arg
    | Pexp_fun _ | Pexp_function _ ->
        report ~line "builds a closure on the hot path (heap block)"
        (* don't descend: the closure body runs elsewhere; the allocation
           is the closure itself *)
    | Pexp_let (_, vbs, let_body)
      when List.exists
             (fun (vb : Parsetree.value_binding) -> is_function vb.pvb_expr)
             vbs ->
        let own =
          List.concat_map
            (fun (vb : Parsetree.value_binding) -> pattern_vars vb.pvb_pat)
            vbs
        in
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            let vb_line = vb.pvb_loc.loc_start.pos_lnum in
            if is_function vb.pvb_expr then begin
              (match captures ~locals ~own vb.pvb_expr with
              | [] -> ()
              | vars ->
                  report ~line:vb_line
                    "local function %s captures %s: its closure is built on \
                     every call"
                    (String.concat ", " own) (String.concat ", " vars));
              (* its body runs on the hot path too *)
              match skip_params vb.pvb_expr with
              | { pexp_desc = Pexp_function cases; _ } ->
                  List.iter (fun (c : Parsetree.case) -> walk c.pc_rhs) cases
              | fn_body -> walk fn_body
            end
            else walk vb.pvb_expr)
          vbs;
        walk let_body
    | Pexp_match ({ pexp_desc = Pexp_tuple scrutinees; _ }, cases) ->
        (* matched component-wise: no tuple is built *)
        List.iter walk scrutinees;
        List.iter
          (fun (c : Parsetree.case) ->
            Option.iter walk c.pc_guard;
            walk c.pc_rhs)
          cases
    | Pexp_apply (f, args) -> (
        match Loader.head_path f with
        | Some [ name ] when List.mem name raising_heads ->
            (* error path: the exception (and its message) may allocate *)
            ()
        | Some path when is_allocator ctx path ->
            report ~line "calls allocator %s on the hot path"
              (String.concat "." path);
            List.iter (fun (_, a) -> walk a) args
        | Some path when is_iterator path ->
            List.iter
              (fun (_, (a : Parsetree.expression)) ->
                match a.pexp_desc with
                | Pexp_apply _ ->
                    report ~line
                      "passes a partial application to %s: a closure is \
                       built on every call"
                      (String.concat "." path)
                | _ -> walk a)
              args
        | _ ->
            walk f;
            List.iter (fun (_, a) -> walk a) args)
    | Pexp_ifthenelse (cond, then_, else_) ->
        walk cond;
        if not (is_coldguard_call ctx cond) then walk then_;
        Option.iter walk else_
    | Pexp_assert _ -> (* assertion failure path may allocate *) ()
    | _ -> walk_children e
  and walk_children e =
    let it =
      {
        Ast_iterator.default_iterator with
        expr = (fun _ sub -> walk sub);
        structure_item = (fun _ _ -> ());
      }
    in
    Ast_iterator.default_iterator.expr it e
  in
  (* Skip the parameter spine: the outer closures are built once at
     definition time, not per call. *)
  walk (skip_params body);
  List.rev !out

let check_source ~spec (src : Loader.source) =
  List.concat_map
    (fun (fn : Loader.func) ->
      if Loader.has_attr attr_name fn.Loader.fn_attrs then
        check_body
          { spec; file = src.Loader.src_path; site = fn.Loader.fn_path }
          fn.Loader.fn_expr
      else [])
    src.Loader.src_funcs

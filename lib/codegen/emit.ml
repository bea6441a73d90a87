let keywords =
  [
    "and"; "as"; "assert"; "begin"; "class"; "constraint"; "do"; "done";
    "downto"; "else"; "end"; "exception"; "external"; "false"; "for"; "fun";
    "function"; "functor"; "if"; "in"; "include"; "inherit"; "initializer";
    "lazy"; "let"; "match"; "method"; "module"; "mutable"; "new"; "object";
    "of"; "or"; "private"; "rec"; "sig"; "struct"; "then"; "to";
    "true"; "try"; "type"; "val"; "virtual"; "when"; "while"; "with";
  ]

let ocaml_name s =
  let b = Buffer.create (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | 'A' .. 'Z' -> Buffer.add_char b (Char.lowercase_ascii c)
      | 'a' .. 'z' | '0' .. '9' | '_' ->
          if i = 0 && c >= '0' && c <= '9' then Buffer.add_char b 'f';
          Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    s;
  let name = Buffer.contents b in
  let name = if name = "" then "field" else name in
  if List.mem name keywords then name ^ "_" else name

let module_name s = String.capitalize_ascii (ocaml_name s)

(* Setters and getters address the field by its [idx_*] constant: the
   index API of [Wire.Dyn], with no name lookup and no boxed value. *)
let emit_scalar_field buf (f : Schema.Desc.field) scalar =
  let n = ocaml_name f.Schema.Desc.field_name in
  match (f.Schema.Desc.label, scalar) with
  | Schema.Desc.Repeated, Schema.Desc.Float64 ->
      Printf.bprintf buf
        "  let add_%s t v = Wire.Dyn.append_float_at t.msg idx_%s v\n\n" n n;
      Printf.bprintf buf
        "  let %s t =\n\
        \    List.init (Wire.Dyn.count t.msg idx_%s) (Wire.Dyn.elem_float t.msg idx_%s)\n\n"
        n n n
  | Schema.Desc.Repeated, _ ->
      Printf.bprintf buf
        "  let add_%s t v = Wire.Dyn.append_int_at t.msg idx_%s v\n\n" n n;
      Printf.bprintf buf
        "  let %s t =\n\
        \    List.init (Wire.Dyn.count t.msg idx_%s) (Wire.Dyn.elem_int t.msg idx_%s)\n\n"
        n n n
  | Schema.Desc.Singular, Schema.Desc.Float64 ->
      Printf.bprintf buf
        "  let set_%s t v = Wire.Dyn.set_float_at t.msg idx_%s v [@@alloc_free]\n\n"
        n n;
      Printf.bprintf buf
        "  let %s t =\n\
        \    if Wire.Dyn.mem t.msg idx_%s then Some (Wire.Dyn.float_at t.msg idx_%s)\n\
        \    else None\n\n"
        n n n
  | Schema.Desc.Singular, _ ->
      Printf.bprintf buf
        "  let set_%s t v = Wire.Dyn.set_int_at t.msg idx_%s v [@@alloc_free]\n\n"
        n n;
      Printf.bprintf buf
        "  (* [set_%s_int] stamps a native int without boxing an int64. *)\n\
        \  let set_%s_int t v = Wire.Dyn.set_int_of_int t.msg idx_%s v\n\
        \  [@@alloc_free]\n\n"
        n n n;
      Printf.bprintf buf
        "  let %s t =\n\
        \    if Wire.Dyn.mem t.msg idx_%s then Some (Wire.Dyn.int_at t.msg idx_%s)\n\
        \    else None\n\n"
        n n n

(* Every payload setter builds its CFPtr with [Cf_ptr.make]: the one
   copy/zero-copy decision, read from the caller's [Config.t] at run time. *)
let emit_payload_field buf (f : Schema.Desc.field) =
  let n = ocaml_name f.Schema.Desc.field_name in
  match f.Schema.Desc.label with
  | Schema.Desc.Repeated ->
      Printf.bprintf buf
        "  (* [add_%s] accepts any bytes; CFPtr's len >= threshold compare \
         decides copy vs zero-copy. *)\n\
        \  let add_%s ~cpu config ep t view =\n\
        \    Wire.Dyn.append_payload_at t.msg idx_%s (Cornflakes.Cf_ptr.make \
         ~cpu config ep view)\n\n"
        n n n;
      Printf.bprintf buf
        "  let add_%s_payload t p = Wire.Dyn.append_payload_at t.msg idx_%s p\n\n"
        n n;
      Printf.bprintf buf
        "  let %s t =\n\
        \    List.init (Wire.Dyn.count t.msg idx_%s) (Wire.Dyn.elem_payload t.msg idx_%s)\n\n"
        n n n
  | Schema.Desc.Singular ->
      Printf.bprintf buf
        "  (* [set_%s] accepts any bytes; CFPtr's len >= threshold compare \
         decides copy vs zero-copy. *)\n\
        \  let set_%s ~cpu config ep t view =\n\
        \    Wire.Dyn.set_payload_at t.msg idx_%s (Cornflakes.Cf_ptr.make \
         ~cpu config ep view)\n\n"
        n n n;
      Printf.bprintf buf
        "  let set_%s_payload t p = Wire.Dyn.set_payload_at t.msg idx_%s p\n\
        \  [@@alloc_free]\n\n"
        n n;
      Printf.bprintf buf
        "  let %s t =\n\
        \    if Wire.Dyn.mem t.msg idx_%s then Some (Wire.Dyn.payload_at t.msg idx_%s)\n\
        \    else None\n\n"
        n n n

let emit_message_field buf (f : Schema.Desc.field) =
  let n = ocaml_name f.Schema.Desc.field_name in
  match f.Schema.Desc.label with
  | Schema.Desc.Repeated ->
      Printf.bprintf buf
        "  let add_%s t nested = Wire.Dyn.append_nested_at t.msg idx_%s nested\n\n"
        n n;
      Printf.bprintf buf
        "  let %s t =\n\
        \    List.init (Wire.Dyn.count t.msg idx_%s) (Wire.Dyn.elem_nested t.msg idx_%s)\n\n"
        n n n
  | Schema.Desc.Singular ->
      Printf.bprintf buf
        "  let set_%s t nested = Wire.Dyn.set_nested_at t.msg idx_%s nested\n\
        \  [@@alloc_free]\n\n"
        n n;
      Printf.bprintf buf
        "  let %s t =\n\
        \    if Wire.Dyn.mem t.msg idx_%s then Some (Wire.Dyn.nested_at t.msg idx_%s)\n\
        \    else None\n\n"
        n n n

(* The specialized serializer body handed to [Send.send_planned] /
   [Format_.run]: when every field is present, the layout is fully folded —
   one hoisted [span] bounds check, a literal bitmap-word store, and
   unrolled constant-offset slot stores (scalars write their u64 directly;
   variable-size values go through [Format_.write_value_at] with a literal
   slot). Any other presence pattern — and any message the layout cannot
   fold — falls back to the generic writer, which produces byte-identical
   wire output. *)
let emit_write_folded buf (m : Schema.Desc.message) =
  let fields = m.Schema.Desc.fields in
  let n = Array.length fields in
  if not (Layout.foldable n) then
    Printf.bprintf buf
      "  (* Specialized serializer: %s, so writes always take the generic\n\
      \     path. *)\n\
      \  let write_folded plan w msg =\n\
      \    Cornflakes.Format_.write_msg_generic plan w msg\n\
      \  [@@alloc_free]\n\n"
      (if n = 0 then "the message has no fields"
       else "the bitmap spans several words")
  else begin
    Printf.bprintf buf
      "  (* Specialized serializer (constant-folded layout): with all %d\n\
      \     field%s present the header block is bytes [0, %d) — bitmap word\n\
      \     count 1, bitmap 0x%x, info slots from byte %d — so one [span]\n\
      \     bounds check covers every unrolled store below. Any other\n\
      \     presence falls back to the generic writer (identical bytes). *)\n\
      \  let write_folded plan w msg =\n\
      \    if Wire.Dyn.bitmap_word msg 0 = 0x%x then begin\n\
      \      Wire.Cursor.Writer.span w ~pos:0 ~len:%d;\n\
      \      Wire.Cursor.Writer.u32_at w ~pos:0 1;\n\
      \      Wire.Cursor.Writer.u32_at w ~pos:4 0x%x;\n"
      n
      (if n = 1 then "" else "s")
      (Layout.all_present_header_len n)
      (Layout.all_present_bitmap n)
      (Layout.slot_base n)
      (Layout.all_present_bitmap n)
      (Layout.all_present_header_len n)
      (Layout.all_present_bitmap n);
    Array.iteri
      (fun i (f : Schema.Desc.field) ->
        let slot = Layout.slot n i in
        let idx = "idx_" ^ ocaml_name f.Schema.Desc.field_name in
        let sep = if i = n - 1 then "" else ";" in
        match (f.Schema.Desc.label, f.Schema.Desc.ty) with
        | Schema.Desc.Singular, Schema.Desc.Scalar _ ->
            Printf.bprintf buf "      Wire.Dyn.write_scalar msg %s w ~pos:%d%s\n"
              idx slot sep
        | Schema.Desc.Singular, (Schema.Desc.Str | Schema.Desc.Bytes) ->
            Printf.bprintf buf
              "      Cornflakes.Format_.write_payload_at w plan\n\
              \        (Wire.Dyn.payload_at msg %s) ~slot:%d%s\n"
              idx slot sep
        | Schema.Desc.Singular, Schema.Desc.Message _ ->
            Printf.bprintf buf
              "      Cornflakes.Format_.write_nested_at w plan\n\
              \        (Wire.Dyn.nested_at msg %s) ~slot:%d%s\n"
              idx slot sep
        | Schema.Desc.Repeated, _ ->
            Printf.bprintf buf
              "      Cornflakes.Format_.write_list_at w plan msg %s ~slot:%d%s\n"
              idx slot sep)
      fields;
    Buffer.add_string buf
      "    end\n\
      \    else Cornflakes.Format_.write_msg_generic plan w msg\n\
      \  [@@alloc_free]\n\n"
  end

(* The specialized validator paired with [Wire.Reader]: when the frame
   carries the constant-folded all-present layout (same shape
   [write_folded] emits — bitmap word count 1, the literal bitmap, slots
   at literal offsets), [Wire.Reader.validate_folded] validates it with
   one hoisted bounds check and arithmetic slot fill. Any other presence
   pattern falls back to the generic validate pass, which accepts exactly
   the same frames and yields the same typed view. *)
let emit_read_folded buf (m : Schema.Desc.message) =
  let fields = m.Schema.Desc.fields in
  let n = Array.length fields in
  Buffer.add_string buf
    "  (* A reusable in-place reader for this message type; validate with\n\
    \     [read_folded] then access fields in the receive buffer. *)\n\
    \  let reader ~cpu () = Wire.Reader.create ~cpu desc\n\n";
  if not (Layout.foldable n) then
    Printf.bprintf buf
      "  (* Specialized validator: %s, so validation always takes the\n\
      \     generic pass. *)\n\
      \  let read_folded r buf = Wire.Reader.validate r buf\n\
      \  [@@alloc_free]\n\n"
      (if n = 0 then "the message has no fields"
       else "the bitmap spans several words")
  else
    Printf.bprintf buf
      "  (* Specialized validator (constant-folded layout): with all %d\n\
      \     field%s present the header block is bytes [0, %d) — bitmap\n\
      \     0x%x, info slots from byte %d — so one bounds check plus\n\
      \     arithmetic slot fill validates the frame. Any other presence\n\
      \     falls back to the generic pass (same frames accepted). *)\n\
      \  let read_folded r buf =\n\
      \    if not (Wire.Reader.validate_folded r buf ~bitmap:0x%x ~header_len:%d)\n\
      \    then Wire.Reader.validate r buf\n\
      \  [@@alloc_free]\n\n"
      n
      (if n = 1 then "" else "s")
      (Layout.all_present_header_len n)
      (Layout.all_present_bitmap n)
      (Layout.slot_base n)
      (Layout.all_present_bitmap n)
      (Layout.all_present_header_len n)

let emit_message buf (m : Schema.Desc.message) =
  Printf.bprintf buf "module %s = struct\n" (module_name m.Schema.Desc.msg_name);
  Printf.bprintf buf "  let desc = Schema.Desc.message schema %S\n\n"
    m.Schema.Desc.msg_name;
  if Array.length m.Schema.Desc.fields > 0 then begin
    Buffer.add_string buf
      "  (* Field indices (schema order): the [Wire.Dyn] index API and the\n\
      \     in-place [Wire.Reader] both address fields by them. *)\n";
    Array.iteri
      (fun i (f : Schema.Desc.field) ->
        Printf.bprintf buf "  let idx_%s = %d\n"
          (ocaml_name f.Schema.Desc.field_name) i)
      m.Schema.Desc.fields;
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf "  type t = { msg : Wire.Dyn.t } [@@unboxed]\n\n";
  Buffer.add_string buf "  let create () = { msg = Wire.Dyn.create desc }\n\n";
  Buffer.add_string buf
    "  (* Blank every field so a pooled message is rebuilt in place. Payload\n\
    \     references are not released: [send] handed them to the stack. *)\n\
    \  let clear t = Wire.Dyn.clear t.msg\n\n";
  Buffer.add_string buf "  let to_dyn t = t.msg\n\n";
  Buffer.add_string buf
    "  let of_dyn msg =\n\
    \    if (Wire.Dyn.desc msg).Schema.Desc.msg_name <> desc.Schema.Desc.msg_name\n\
    \    then invalid_arg \"of_dyn: wrong message type\";\n\
    \    { msg }\n\n";
  Array.iter
    (fun (f : Schema.Desc.field) ->
      match f.Schema.Desc.ty with
      | Schema.Desc.Scalar s -> emit_scalar_field buf f s
      | Schema.Desc.Str | Schema.Desc.Bytes ->
          emit_payload_field buf f
      | Schema.Desc.Message _ -> emit_message_field buf f)
    m.Schema.Desc.fields;
  Buffer.add_string buf
    "  let object_len t = Cornflakes.Format_.object_len t.msg\n\n";
  emit_read_folded buf m;
  emit_write_folded buf m;
  Buffer.add_string buf
    "  (* Combined serialize-and-send: no separate serialize step. The\n\
    \     transport decides framing and headroom, so the same accessor\n\
    \     sends over UDP datagrams or TCP records; the serializer body is\n\
    \     this module's folded writer. *)\n\
    \  let send config tr ~dst t =\n\
    \    Cornflakes.Send.send_planned config tr ~dst t.msg\n\
    \      ~write:write_folded\n\
    \  [@@alloc_free]\n\n";
  Buffer.add_string buf
    "  let release ~cpu t = Wire.Dyn.release ~cpu t.msg\nend\n\n"

(* --- service compilation ---------------------------------------------- *)

let service_module_name (s : Schema.Desc.service) =
  module_name s.Schema.Desc.svc_name ^ "_service"

let has_streamed (s : Schema.Desc.service) =
  Array.exists (fun (m : Schema.Desc.method_) -> m.Schema.Desc.stream)
    s.Schema.Desc.methods

(* Envelope geometry folded at compile time: the v1 service contract
   (checked by [Desc.validate]) pins every method of a service to one
   request and one response envelope, with integer scalar [op]/[id] in the
   request, [id] (plus [seq] for streams) in the response — so the field
   indices the skeleton dispatches on are literals here. *)
type envelope = {
  env_req : Schema.Desc.message;
  env_resp : Schema.Desc.message;
  e_req_op : int;
  e_req_id : int;
  e_resp_id : int;
  e_resp_seq : int option;
}

let envelope schema (s : Schema.Desc.service) =
  let m0 = s.Schema.Desc.methods.(0) in
  let req = Schema.Desc.message schema m0.Schema.Desc.req_type in
  let resp = Schema.Desc.message schema m0.Schema.Desc.resp_type in
  {
    env_req = req;
    env_resp = resp;
    e_req_op = Schema.Desc.field_index req "op";
    e_req_id = Schema.Desc.field_index req "id";
    e_resp_id = Schema.Desc.field_index resp "id";
    e_resp_seq =
      (if has_streamed s then Some (Schema.Desc.field_index resp "seq")
       else None);
  }

(* The compiled service: a typed client stub and a server skeleton, both
   bound onto the specialized send/receive paths of the envelope message
   modules emitted above. The skeleton validates each request exactly once
   and dispatches the [op] method word through a branchless [Rpc.Table];
   the stub stamps id + method word and sends through the folded writer,
   with declared deadlines defaulted in. *)
let emit_service schema buf (s : Schema.Desc.service) =
  let env = envelope schema s in
  let req_mod = module_name env.env_req.Schema.Desc.msg_name in
  let resp_mod = module_name env.env_resp.Schema.Desc.msg_name in
  let table_size = Schema.Desc.max_method_id s + 1 in
  let methods = s.Schema.Desc.methods in
  Printf.bprintf buf "module %s = struct\n" (service_module_name s);
  Printf.bprintf buf "  let svc = Schema.Desc.service schema %S\n\n"
    s.Schema.Desc.svc_name;
  Buffer.add_string buf
    "  (* Method-id words: the request envelope's [op] field. *)\n";
  Array.iter
    (fun (m : Schema.Desc.method_) ->
      Printf.bprintf buf "  let id_%s = %dL\n"
        (ocaml_name m.Schema.Desc.meth_name)
        m.Schema.Desc.meth_id)
    methods;
  Printf.bprintf buf "\n  let method_count = %d\n\n" (Array.length methods);
  Buffer.add_string buf "  (* Declared per-method deadlines (ms). *)\n";
  Array.iter
    (fun (m : Schema.Desc.method_) ->
      Printf.bprintf buf "  let deadline_ms_%s : int option = %s\n"
        (ocaml_name m.Schema.Desc.meth_name)
        (match m.Schema.Desc.deadline_ms with
        | Some d -> Printf.sprintf "Some %d" d
        | None -> "None"))
    methods;
  Buffer.add_string buf "\n  (* Streamed responses. *)\n";
  Array.iter
    (fun (m : Schema.Desc.method_) ->
      Printf.bprintf buf "  let stream_%s = %b\n"
        (ocaml_name m.Schema.Desc.meth_name)
        m.Schema.Desc.stream)
    methods;
  Buffer.add_string buf
    "\n  (* Envelope field indices (literal — folded from the schema). *)\n";
  Printf.bprintf buf "  let req_op = %d\n" env.e_req_op;
  Printf.bprintf buf "  let req_id = %d\n" env.e_req_id;
  Printf.bprintf buf "  let resp_id = %d\n" env.e_resp_id;
  (match env.e_resp_seq with
  | Some i -> Printf.bprintf buf "  let resp_seq = %d\n" i
  | None -> ());
  Buffer.add_string buf
    "\n\
    \  (* A method handler. [h_reader] serves the zero-copy path: fields\n\
    \     are read in place from the once-validated request frame. [h_dyn]\n\
    \     serves backends that parse into a [Wire.Dyn.t] first. Both fill\n\
    \     the pooled response; unary methods tail-send it, streamed methods\n\
    \     emit chunks through their [emit_*] helper instead. *)\n\
    \  type handler = {\n\
    \    h_stream : bool;\n\
    \    h_reader : src:int -> Wire.Reader.t -> Wire.Dyn.t -> unit;\n\
    \    h_dyn : src:int -> Wire.Dyn.t -> Wire.Dyn.t -> unit;\n\
    \  }\n\n\
    \  (* Unknown or unregistered method words land here: the request is\n\
    \     answered with the bare id-echo response, never dropped. *)\n\
    \  let unhandled =\n\
    \    {\n\
    \      h_stream = false;\n\
    \      h_reader = (fun ~src:_ _ _ -> ());\n\
    \      h_dyn = (fun ~src:_ _ _ -> ());\n\
    \    }\n\n\
    \  type server = {\n\
    \    s_table : handler Rpc.Table.t;\n\
    \    s_reader : Wire.Reader.t;\n\
    \    s_resp : Wire.Dyn.t;\n\
    \    s_send : dst:int -> Wire.Dyn.t -> unit;\n\
    \  }\n\n";
  Printf.bprintf buf
    "  let server ~cpu ~send () =\n\
    \    {\n\
    \      s_table = Rpc.Table.create ~n:%d ~fallback:unhandled;\n\
    \      s_reader = %s.reader ~cpu ();\n\
    \      s_resp = Wire.Dyn.create %s.desc;\n\
    \      s_send = send;\n\
    \    }\n\n"
    table_size req_mod resp_mod;
  Array.iter
    (fun (m : Schema.Desc.method_) ->
      let n = ocaml_name m.Schema.Desc.meth_name in
      Printf.bprintf buf
        "  let on_%s ?reader ?dyn s =\n\
        \    Rpc.Table.set s.s_table ~id:%d\n\
        \      {\n\
        \        h_stream = stream_%s;\n\
        \        h_reader =\n\
        \          (match reader with Some f -> f | None -> unhandled.h_reader);\n\
        \        h_dyn = (match dyn with Some f -> f | None -> unhandled.h_dyn);\n\
        \      }\n\n"
        n m.Schema.Desc.meth_id n)
    methods;
  Buffer.add_string buf
    "  (* Method word of a request; [-1] (the fallback row) when absent. *)\n\
    \  let method_of_reader r = Wire.Reader.get_int_or r req_op ~default:(-1)\n\n\
    \  let method_of_dyn req =\n\
    \    if Wire.Dyn.mem req req_op then Wire.Dyn.int_of_int_at req req_op else -1\n\n";
  Buffer.add_string buf
    "  (* Server skeleton, zero-copy path: validate the frame exactly once\n\
    \     into the pooled in-place reader, echo the caller's id into the\n\
    \     pooled response, dispatch the method word through the branchless\n\
    \     table; unary methods tail-send the response the handler filled.\n\
    \     [false]: the frame failed validation and nothing was sent (the\n\
    \     caller still owns, and releases, the delivery reference). *)\n\
    \  let serve s ~src buf =\n\
    \    match Wire.Reader.validate s.s_reader buf with\n\
    \    | exception Wire.Reader.Invalid _ -> false\n\
    \    | () ->\n\
    \        Wire.Dyn.clear s.s_resp;\n\
    \        if Wire.Reader.present s.s_reader req_id then\n\
    \          Wire.Dyn.set_int_of_reader s.s_resp resp_id s.s_reader req_id;\n\
    \        let h =\n\
    \          Rpc.Table.dispatch s.s_table (method_of_reader s.s_reader)\n\
    \        in\n\
    \        h.h_reader ~src s.s_reader s.s_resp;\n\
    \        if not h.h_stream then s.s_send ~dst:src s.s_resp;\n\
    \        true\n\n\
    \  (* Copy-path twin: identical operation order over a request a\n\
    \     backend already parsed into a [Wire.Dyn.t] (caller keeps\n\
    \     ownership of [req]). *)\n\
    \  let serve_dyn s ~src req =\n\
    \    Wire.Dyn.clear s.s_resp;\n\
    \    if Wire.Dyn.mem req req_id then\n\
    \      Wire.Dyn.set_int_at s.s_resp resp_id (Wire.Dyn.int_at req req_id);\n\
    \    let h = Rpc.Table.dispatch s.s_table (method_of_dyn req) in\n\
    \    h.h_dyn ~src req s.s_resp;\n\
    \    if not h.h_stream then s.s_send ~dst:src s.s_resp\n\n";
  Array.iter
    (fun (m : Schema.Desc.method_) ->
      if m.Schema.Desc.stream then
        let n = ocaml_name m.Schema.Desc.meth_name in
        Printf.bprintf buf
          "  (* Stream emission for %s: stamp the chunk's seq word (last\n\
          \     data chunk carries the last bit — no terminator frame) and\n\
          \     send one response frame per chunk; the response is cleared\n\
          \     for the handler to fill the next chunk. *)\n\
          \  let emit_%s s ~dst ~id cur ~last =\n\
          \    Wire.Dyn.set_int_at s.s_resp resp_id id;\n\
          \    Wire.Dyn.set_int_at s.s_resp resp_seq (Rpc.Stream.next cur ~last);\n\
          \    s.s_send ~dst s.s_resp;\n\
          \    Wire.Dyn.clear s.s_resp\n\n"
          m.Schema.Desc.meth_name n)
    methods;
  Printf.bprintf buf
    "  (* Client call state over this service's envelopes: responses\n\
    \     validate into its pooled reader, requests go out through the\n\
    \     request envelope's folded writer. *)\n\
    \  let client ?config ?engine ?reliab tr =\n\
    \    Rpc.Client.create ?config ?engine ?reliab ~resp:%s.desc ~req_id ~req_op\n\
    \      ~write:%s.write_folded tr\n\n"
    resp_mod req_mod;
  Array.iter
    (fun (m : Schema.Desc.method_) ->
      let n = ocaml_name m.Schema.Desc.meth_name in
      if m.Schema.Desc.stream then
        Printf.bprintf buf
          "  (* Typed stub for %s (streamed): the client stamps the call id\n\
          \     and method word into a caller-built request, then sends it\n\
          \     through the folded writer — via the retry layer when the\n\
          \     client carries one. Declared deadline defaults in. The request\n\
          \     belongs to the call until it resolves. *)\n\
          \  let call_%s ?deadline_ms c ~dst req ~on_chunk ~on_done =\n\
          \    let deadline_ms =\n\
          \      match deadline_ms with Some _ as d -> d | None -> deadline_ms_%s\n\
          \    in\n\
          \    Rpc.Client.call_stream c ?deadline_ms ~op:id_%s ~dst ~on_chunk\n\
          \      ~on_done (%s.to_dyn req)\n\n"
          m.Schema.Desc.meth_name n n n req_mod
      else
        Printf.bprintf buf
          "  (* Typed stub for %s: the client stamps the call id and method\n\
          \     word into a caller-built request, then sends it through the\n\
          \     folded writer — via the retry layer when the client carries\n\
          \     one. Declared deadline defaults in. The request belongs to the\n\
          \     call until it resolves. *)\n\
          \  let call_%s ?deadline_ms c ~dst req ~on_reply =\n\
          \    let deadline_ms =\n\
          \      match deadline_ms with Some _ as d -> d | None -> deadline_ms_%s\n\
          \    in\n\
          \    Rpc.Client.call c ?deadline_ms ~op:id_%s ~dst ~on_reply\n\
          \      (%s.to_dyn req)\n\
          \  [@@alloc_free]\n\n"
          m.Schema.Desc.meth_name n n n req_mod)
    methods;
  (match env.e_resp_seq with
  | Some _ ->
      Printf.bprintf buf
        "  (* Response delivery: validate the frame once into the client's\n\
        \     pooled reader, then route on the echoed id and seq word. *)\n\
        \  let deliver c buf =\n\
        \    let r = Rpc.Client.reader c in\n\
        \    %s.read_folded r buf;\n\
        \    let id = Wire.Reader.get_int_or r resp_id ~default:0 in\n\
        \    let seq_word =\n\
        \      if Wire.Reader.present r resp_seq then\n\
        \        Some (Wire.Reader.get_u64 r resp_seq)\n\
        \      else None\n\
        \    in\n\
        \    Rpc.Client.complete ?seq_word c ~id r\n"
        resp_mod
  | None ->
      Printf.bprintf buf
        "  (* Response delivery: validate the frame once into the client's\n\
        \     pooled reader, then route on the echoed id. *)\n\
        \  let deliver c buf =\n\
        \    let r = Rpc.Client.reader c in\n\
        \    %s.read_folded r buf;\n\
        \    let id = Wire.Reader.get_int_or r resp_id ~default:0 in\n\
        \    Rpc.Client.complete c ~id r\n"
        resp_mod);
  Buffer.add_string buf "end\n\n"

let module_source ~schema_text schema =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "(* Generated by the Cornflakes compiler (Codegen.Emit). DO NOT EDIT. *)\n\n";
  Printf.bprintf buf "let schema = Schema.Parser.parse {schema|%s|schema}\n\n"
    schema_text;
  List.iter (fun m -> emit_message buf m) schema.Schema.Desc.messages;
  List.iter (fun s -> emit_service schema buf s) schema.Schema.Desc.services;
  Buffer.contents buf

(* Ownership-IR summary of the generated module: one line per binding,
   declaring the role it plays and the runtime entry point it must call.
   StatCheck's IR pass re-parses the generated .ml against this, so the
   generated code is verified mechanically instead of hand-spec'd — and a
   hand-edited generated file (or a stale sidecar) fails `check`. *)
let ir_message buf (m : Schema.Desc.message) =
  let mn = module_name m.Schema.Desc.msg_name in
  let fn name role callee =
    Printf.bprintf buf "fn %s.%s role=%s callee=%s\n" mn name role callee
  in
  fn "desc" "desc" "Schema.Desc.message";
  fn "create" "alloc" "Wire.Dyn.create";
  fn "clear" "accessor" "Wire.Dyn.clear";
  fn "to_dyn" "accessor" "-";
  fn "of_dyn" "accessor" "Wire.Dyn.desc";
  Array.iter
    (fun (f : Schema.Desc.field) ->
      let n = ocaml_name f.Schema.Desc.field_name in
      match (f.Schema.Desc.ty, f.Schema.Desc.label) with
      | Schema.Desc.Scalar Schema.Desc.Float64, Schema.Desc.Repeated ->
          fn ("add_" ^ n) "setter" "Wire.Dyn.append_float_at";
          fn n "getter" "Wire.Dyn.count"
      | Schema.Desc.Scalar _, Schema.Desc.Repeated ->
          fn ("add_" ^ n) "setter" "Wire.Dyn.append_int_at";
          fn n "getter" "Wire.Dyn.count"
      | Schema.Desc.Scalar Schema.Desc.Float64, Schema.Desc.Singular ->
          fn ("set_" ^ n) "setter" "Wire.Dyn.set_float_at";
          fn n "getter" "Wire.Dyn.float_at"
      | Schema.Desc.Scalar _, Schema.Desc.Singular ->
          fn ("set_" ^ n) "setter" "Wire.Dyn.set_int_at";
          fn ("set_" ^ n ^ "_int") "setter" "Wire.Dyn.set_int_of_int";
          fn n "getter" "Wire.Dyn.int_at"
      | (Schema.Desc.Str | Schema.Desc.Bytes), Schema.Desc.Repeated ->
          fn ("add_" ^ n) "setter" "Cornflakes.Cf_ptr.make";
          fn ("add_" ^ n ^ "_payload") "setter" "Wire.Dyn.append_payload_at";
          fn n "getter" "Wire.Dyn.count"
      | (Schema.Desc.Str | Schema.Desc.Bytes), Schema.Desc.Singular ->
          fn ("set_" ^ n) "setter" "Cornflakes.Cf_ptr.make";
          fn ("set_" ^ n ^ "_payload") "setter" "Wire.Dyn.set_payload_at";
          fn n "getter" "Wire.Dyn.payload_at"
      | Schema.Desc.Message _, Schema.Desc.Repeated ->
          fn ("add_" ^ n) "setter" "Wire.Dyn.append_nested_at";
          fn n "getter" "Wire.Dyn.count"
      | Schema.Desc.Message _, Schema.Desc.Singular ->
          fn ("set_" ^ n) "setter" "Wire.Dyn.set_nested_at";
          fn n "getter" "Wire.Dyn.nested_at")
    m.Schema.Desc.fields;
  fn "object_len" "len" "Cornflakes.Format_.object_len";
  fn "reader" "alloc" "Wire.Reader.create";
  fn "read_folded" "reader"
    (if Layout.foldable (Array.length m.Schema.Desc.fields) then
       "Wire.Reader.validate_folded"
     else "Wire.Reader.validate");
  fn "write_folded" "writer" "Cornflakes.Format_.write_msg_generic";
  fn "send" "send" "Cornflakes.Send.send_planned";
  fn "release" "release" "Wire.Dyn.release"

let ir_service buf (s : Schema.Desc.service) =
  let mn = service_module_name s in
  let fn name role callee =
    Printf.bprintf buf "fn %s.%s role=%s callee=%s\n" mn name role callee
  in
  fn "svc" "desc" "Schema.Desc.service";
  fn "server" "alloc" "Rpc.Table.create";
  Array.iter
    (fun (m : Schema.Desc.method_) ->
      fn ("on_" ^ ocaml_name m.Schema.Desc.meth_name) "setter" "Rpc.Table.set")
    s.Schema.Desc.methods;
  fn "method_of_reader" "getter" "Wire.Reader.get_int_or";
  fn "method_of_dyn" "getter" "Wire.Dyn.int_of_int_at";
  fn "serve" "reader" "Wire.Reader.validate";
  fn "serve_dyn" "accessor" "Rpc.Table.dispatch";
  Array.iter
    (fun (m : Schema.Desc.method_) ->
      if m.Schema.Desc.stream then
        fn ("emit_" ^ ocaml_name m.Schema.Desc.meth_name) "send"
          "Rpc.Stream.next")
    s.Schema.Desc.methods;
  fn "client" "alloc" "Rpc.Client.create";
  Array.iter
    (fun (m : Schema.Desc.method_) ->
      fn
        ("call_" ^ ocaml_name m.Schema.Desc.meth_name)
        "send"
        (if m.Schema.Desc.stream then "Rpc.Client.call_stream"
         else "Rpc.Client.call"))
    s.Schema.Desc.methods;
  fn "deliver" "reader" "Rpc.Client.complete"

let ir_source schema =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "# Ownership IR generated by the Cornflakes compiler (Codegen.Emit). DO NOT EDIT.\n";
  List.iter
    (fun m ->
      Buffer.add_char buf '\n';
      ir_message buf m)
    schema.Schema.Desc.messages;
  List.iter
    (fun s ->
      Buffer.add_char buf '\n';
      ir_service buf s)
    schema.Schema.Desc.services;
  Buffer.contents buf

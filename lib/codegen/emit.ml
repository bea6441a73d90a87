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

(* Every [$n] of a template is the field's OCaml name. *)
let subst n template =
  match String.split_on_char '$' template with
  | [] -> ""
  | first :: rest ->
      String.concat ""
        (first
        :: List.map (fun p -> n ^ String.sub p 1 (String.length p - 1)) rest)

(* The builder API of a field: per binding, its IR name, role and callee,
   and its source. Setters and getters address the field by its [idx_*]
   constant: the index API of [Wire.Dyn], with no name lookup and no boxed
   value. Every payload setter builds its CFPtr with [Cf_ptr.make]: the one
   copy/zero-copy decision, read from the caller's [Config.t] at run time.
   The kinds the read signature covers (below) have no getter here. *)
let builder (f : Schema.Desc.field) =
  let list_getter elem =
    ( "$n", "getter", "Wire.Dyn.count",
      "  let $n t =\n\
      \    List.init (Wire.Dyn.count t.msg idx_$n) (Wire.Dyn." ^ elem
      ^ " t.msg idx_$n)\n\n" )
  in
  let option_getter get =
    ( "$n", "getter", "Wire.Dyn." ^ get,
      "  let $n t =\n\
      \    if Wire.Dyn.mem t.msg idx_$n then Some (Wire.Dyn." ^ get
      ^ " t.msg idx_$n)\n\
        \    else None\n\n" )
  in
  let payload_setter verb set =
    ( verb ^ "_$n", "setter", "Cornflakes.Cf_ptr.make",
      "  (* [" ^ verb
      ^ "_$n] accepts any bytes; CFPtr's len >= threshold compare decides \
         copy vs zero-copy. *)\n\
        \  let " ^ verb ^ "_$n ~cpu config ep t view =\n\
        \    Wire.Dyn." ^ set
      ^ " t.msg idx_$n (Cornflakes.Cf_ptr.make ~cpu config ep view)\n\n" )
  in
  match (f.Schema.Desc.label, f.Schema.Desc.ty) with
  | Schema.Desc.Repeated, Schema.Desc.Scalar Schema.Desc.Float64 ->
      [
        ( "add_$n", "setter", "Wire.Dyn.append_float_at",
          "  let add_$n t v = Wire.Dyn.append_float_at t.msg idx_$n v\n\n" );
        list_getter "elem_float";
      ]
  | Schema.Desc.Repeated, Schema.Desc.Scalar _ ->
      [
        ( "add_$n", "setter", "Wire.Dyn.append_int_at",
          "  let add_$n t v = Wire.Dyn.append_int_at t.msg idx_$n v\n\n" );
        list_getter "elem_int";
      ]
  | Schema.Desc.Singular, Schema.Desc.Scalar Schema.Desc.Float64 ->
      [
        ( "set_$n", "setter", "Wire.Dyn.set_float_at",
          "  let set_$n t v = Wire.Dyn.set_float_at t.msg idx_$n v \
           [@@alloc_free]\n\n" );
        option_getter "float_at";
      ]
  | Schema.Desc.Singular, Schema.Desc.Scalar _ ->
      [
        ( "set_$n", "setter", "Wire.Dyn.set_int_at",
          "  let set_$n t v = Wire.Dyn.set_int_at t.msg idx_$n v \
           [@@alloc_free]\n\n" );
        ( "set_$n_int", "setter", "Wire.Dyn.set_int_of_int",
          "  (* [set_$n_int] stamps a native int without boxing an int64. *)\n\
          \  let set_$n_int t v = Wire.Dyn.set_int_of_int t.msg idx_$n v\n\
          \  [@@alloc_free]\n\n" );
      ]
  | Schema.Desc.Repeated, (Schema.Desc.Str | Schema.Desc.Bytes) ->
      [
        payload_setter "add" "append_payload_at";
        ( "add_$n_payload", "setter", "Wire.Dyn.append_payload_at",
          "  let add_$n_payload t p = Wire.Dyn.append_payload_at t.msg idx_$n \
           p\n\n" );
      ]
  | Schema.Desc.Singular, (Schema.Desc.Str | Schema.Desc.Bytes) ->
      [
        payload_setter "set" "set_payload_at";
        ( "set_$n_payload", "setter", "Wire.Dyn.set_payload_at",
          "  let set_$n_payload t p = Wire.Dyn.set_payload_at t.msg idx_$n p\n\
          \  [@@alloc_free]\n\n" );
      ]
  | Schema.Desc.Repeated, Schema.Desc.Message _ ->
      [
        ( "add_$n", "setter", "Wire.Dyn.append_nested_at",
          "  let add_$n t nested = Wire.Dyn.append_nested_at t.msg idx_$n \
           nested\n\n" );
        list_getter "elem_nested";
      ]
  | Schema.Desc.Singular, Schema.Desc.Message _ ->
      [
        ( "set_$n", "setter", "Wire.Dyn.set_nested_at",
          "  let set_$n t nested = Wire.Dyn.set_nested_at t.msg idx_$n nested\n\
          \  [@@alloc_free]\n\n" );
        option_getter "nested_at";
      ]

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

(* --- the read signature ------------------------------------------------ *)

(* One accessor of a received message: its name, its type after [t ->],
   and its body over the in-place [Wire.Reader] and over the parsed
   [Wire.Dyn], both reading the message [r] (and element [j]). Views
   allocate; a parsed key is built from a view. *)
type accessor = {
  name : string;
  ty : string;
  in_place : string;
  parsed : string;
  reads : [ `Word | `Key | `View ];
}

(* The kinds the signature covers: integer scalars as unboxed ints with a
   presence test (0 when absent), bytes as a count, a key handle and a
   view. Floats, repeated scalars and nested messages keep their getters. *)
let accessors (f : Schema.Desc.field) =
  let n = ocaml_name f.Schema.Desc.field_name in
  let acc ?(reads = `Word) name ty in_place parsed =
    {
      name = subst n name;
      ty;
      in_place = subst n in_place;
      parsed = subst n parsed;
      reads;
    }
  in
  let has =
    acc "has_$n" "bool" "Wire.Reader.present r idx_$n"
      "Wire.Dyn.mem r.msg idx_$n"
  in
  match (f.Schema.Desc.label, f.Schema.Desc.ty) with
  | Schema.Desc.Singular, Schema.Desc.Scalar Schema.Desc.Float64 -> []
  | Schema.Desc.Singular, Schema.Desc.Scalar _ ->
      [
        has;
        acc "$n" "int" "Wire.Reader.get_int_or r idx_$n ~default:0"
          "if Wire.Dyn.mem r.msg idx_$n then Wire.Dyn.int_of_int_at r.msg \
           idx_$n else 0";
      ]
  | Schema.Desc.Singular, (Schema.Desc.Str | Schema.Desc.Bytes) ->
      let v = "Wire.Payload.view (Wire.Dyn.payload_at r.msg idx_$n)" in
      [
        has;
        acc ~reads:`Key "$n_key" "key" "Wire.Reader.payload_key r idx_$n"
          ("sweep r (" ^ v ^ ")");
        acc ~reads:`View "$n_view" "Mem.View.t"
          "Wire.Reader.payload_view r idx_$n" v;
      ]
  | Schema.Desc.Repeated, (Schema.Desc.Str | Schema.Desc.Bytes) ->
      let v = "Wire.Payload.view (Wire.Dyn.elem_payload r.msg idx_$n j)" in
      [
        acc "$n_count" "int" "Wire.Reader.count_or_zero r idx_$n"
          "Wire.Dyn.count r.msg idx_$n";
        acc ~reads:`Key "$n_key" "int -> key"
          "Wire.Reader.elem_key r idx_$n ~j" ("sweep r (" ^ v ^ ")");
        acc ~reads:`View "$n_view" "int -> Mem.View.t"
          "Wire.Reader.elem_view r idx_$n ~j" v;
      ]
  | Schema.Desc.Repeated, Schema.Desc.Scalar _ | _, Schema.Desc.Message _ -> []

let message_accessors (m : Schema.Desc.message) =
  List.concat_map accessors (Array.to_list m.Schema.Desc.fields)

(* The runtime call an accessor body is built on: its first [Wire.] path,
   the callee the IR sidecar records. *)
let callee body =
  String.map (function '(' | ')' -> ' ' | c -> c) body
  |> String.split_on_char ' '
  |> List.find (String.starts_with ~prefix:"Wire.")

(* The message's read signature [R] and its two implementations. A
   handler written once against [R] serves every wire format: [In_place]
   reads a Cornflakes frame where it landed, [Parsed] the [Wire.Dyn] a
   baseline's decoder builds. Each accessor makes exactly the calls, and
   meter charges, of a handler written against that representation. *)
let emit_read_signature buf (m : Schema.Desc.message) =
  let accs = message_accessors m in
  let emit_impl body alloc_free =
    List.iter
      (fun a ->
        Printf.bprintf buf "    let %s r%s = %s%s\n" a.name
          (if String.starts_with ~prefix:"int ->" a.ty then " j" else "")
          (body a)
          (if alloc_free a then " [@@alloc_free]" else ""))
      accs
  in
  Buffer.add_string buf
    "  (* Typed read access to a received message, one signature over both\n\
    \     decoders. [t] is a pooled decoder: [decode] reads a frame into it\n\
    \     (raising [Wire.Reader.Invalid] on a frame it rejects), the\n\
    \     accessors read that frame, [finish] ends its use. A key is a byte\n\
    \     window the handler hashes, read back uncharged by [key_*]. *)\n\
    \  module type R = sig\n\
    \    type t\n\
    \    type key\n\
    \    val decode : t -> Mem.Pinned.Buf.t -> unit\n\
    \    val finish : t -> unit\n\
    \    val key_data : t -> key -> Bytes.t\n\
    \    val key_off : t -> key -> int\n\
    \    val key_len : t -> key -> int\n";
  List.iter
    (fun a -> Printf.bprintf buf "    val %s : t -> %s\n" a.name a.ty)
    accs;
  Buffer.add_string buf
    "  end\n\n\
    \  (* Cornflakes frames, validated once and read where they landed. *)\n\
    \  module In_place : R with type t = Wire.Reader.t and type key = int =\n\
    \  struct\n\
    \    type t = Wire.Reader.t\n\
    \    type key = int\n\
    \    let decode r buf = Wire.Reader.validate r buf\n\
    \    let finish (_ : t) = ()\n\
    \    let key_data r (_ : key) = Wire.Reader.data r\n\
    \    let key_off r k = Wire.Reader.key_off r k [@@alloc_free]\n\
    \    let key_len r k = Wire.Reader.key_len r k [@@alloc_free]\n";
  emit_impl (fun a -> a.in_place) (fun a -> a.reads <> `View);
  Buffer.add_string buf
    "  end\n\n\
    \  (* A message a baseline's own decoder parsed: [create ~cpu parse]\n\
    \     wraps the decoder, [finish] releases the parsed message. *)\n\
    \  module Parsed : sig\n\
    \    include R with type key = Mem.View.t\n\
    \    val create : cpu:Memmodel.Cpu.t -> (Mem.Pinned.Buf.t -> Wire.Dyn.t) -> t\n\
    \  end = struct\n\
    \    type t = {\n\
    \      cpu : Memmodel.Cpu.t;\n\
    \      parse : Mem.Pinned.Buf.t -> Wire.Dyn.t;\n\
    \      mutable msg : Wire.Dyn.t;\n\
    \    }\n\
    \    type key = Mem.View.t\n\
    \    let create ~cpu parse = { cpu; parse; msg = Wire.Dyn.vacant }\n\
    \    let decode r buf = r.msg <- r.parse buf\n\
    \    let finish r =\n\
    \      Wire.Dyn.release ~cpu:r.cpu r.msg;\n\
    \      r.msg <- Wire.Dyn.vacant\n\
    \    let key_data _ (v : key) = v.Mem.View.data\n\
    \    let key_off _ (v : key) = v.Mem.View.off\n\
    \    let key_len _ (v : key) = v.Mem.View.len\n";
  if List.exists (fun a -> a.reads = `Key) accs then
    Buffer.add_string buf
      "    (* A key's bytes are streamed once, charged to App, as\n\
      \       [Wire.Reader.elem_key] charges them in place. *)\n\
      \    let sweep r (v : Mem.View.t) =\n\
      \      Memmodel.Cpu.stream r.cpu Memmodel.Cpu.App ~addr:v.Mem.View.addr\n\
      \        ~len:v.Mem.View.len;\n\
      \      v\n";
  emit_impl (fun a -> a.parsed) (fun a -> a.reads = `Word);
  Buffer.add_string buf
    "  end\n\n\
    \  (* The decoder of a wire format, chosen once from its parser: [None]\n\
    \     is a Cornflakes frame, read in place. *)\n\
    \  type decoder = Decoder : (module R with type t = 'd) * 'd -> decoder\n\n\
    \  let decoder ~cpu = function\n\
    \    | None -> Decoder ((module In_place), reader ~cpu ())\n\
    \    | Some parse -> Decoder ((module Parsed), Parsed.create ~cpu parse)\n"

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
      let n = ocaml_name f.Schema.Desc.field_name in
      List.iter
        (fun (_, _, _, src) -> Buffer.add_string buf (subst n src))
        (builder f))
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
    "  let release ~cpu t = Wire.Dyn.release ~cpu t.msg\n\n";
  emit_read_signature buf m;
  Buffer.add_string buf "end\n\n"

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
  Printf.bprintf buf
    "\n\
    \  (* The server skeleton, written once over the request envelope's read\n\
    \     signature and instantiated per decoder: [Server (%s.In_place)]\n\
    \     reads Cornflakes frames in place, [Server (%s.Parsed)] the request\n\
    \     a baseline's decoder parsed. A handler fills the pooled response;\n\
    \     unary methods tail-send it, streamed methods emit chunks through\n\
    \     their [emit_*] helper instead. *)\n\
    \  module Server (D : %s.R) = struct\n\
    \    type handler = {\n\
    \      h_stream : bool;\n\
    \      h : src:int -> D.t -> Wire.Dyn.t -> unit;\n\
    \    }\n\n\
    \    (* Unknown or unregistered method words land here: the request is\n\
    \       answered with the bare id-echo response, never dropped. *)\n\
    \    let unhandled = { h_stream = false; h = (fun ~src:_ _ _ -> ()) }\n\n\
    \    type server = {\n\
    \      s_table : handler Rpc.Table.t;\n\
    \      s_req : D.t;\n\
    \      s_resp : Wire.Dyn.t;\n\
    \      s_send : dst:int -> Wire.Dyn.t -> unit;\n\
    \    }\n\n\
    \    (* [req] is the pooled decoder every request is read through. *)\n\
    \    let server ~send req =\n\
    \      {\n\
    \        s_table = Rpc.Table.create ~n:%d ~fallback:unhandled;\n\
    \        s_req = req;\n\
    \        s_resp = Wire.Dyn.create %s.desc;\n\
    \        s_send = send;\n\
    \      }\n\n"
    req_mod req_mod req_mod table_size resp_mod;
  Array.iter
    (fun (m : Schema.Desc.method_) ->
      let n = ocaml_name m.Schema.Desc.meth_name in
      Printf.bprintf buf
        "    let on_%s s h =\n\
        \      Rpc.Table.set s.s_table ~id:%d { h_stream = stream_%s; h }\n\n"
        n m.Schema.Desc.meth_id n)
    methods;
  Buffer.add_string buf
    "    (* Method word of a request; [-1] (the fallback row) when absent. *)\n\
    \    let method_of req = if D.has_op req then D.op req else -1\n\n\
    \    (* Decode the frame once into the pooled decoder, echo the caller's\n\
    \       id into the pooled response, dispatch the method word through\n\
    \       the branchless table, tail-send a unary method's response, then\n\
    \       finish with the request. [false]: the frame failed its decoder\n\
    \       and nothing was sent (the caller still owns, and releases, the\n\
    \       delivery reference). *)\n\
    \    let serve s ~src buf =\n\
    \      match D.decode s.s_req buf with\n\
    \      | exception Wire.Reader.Invalid _ -> false\n\
    \      | () ->\n\
    \          Wire.Dyn.clear s.s_resp;\n\
    \          if D.has_id s.s_req then\n\
    \            Wire.Dyn.set_int_of_int s.s_resp resp_id (D.id s.s_req);\n\
    \          let h = Rpc.Table.dispatch s.s_table (method_of s.s_req) in\n\
    \          h.h ~src s.s_req s.s_resp;\n\
    \          if not h.h_stream then s.s_send ~dst:src s.s_resp;\n\
    \          D.finish s.s_req;\n\
    \          true\n";
  Array.iter
    (fun (m : Schema.Desc.method_) ->
      if m.Schema.Desc.stream then
        let n = ocaml_name m.Schema.Desc.meth_name in
        Printf.bprintf buf
          "\n\
          \    (* Stream emission for %s: stamp the chunk's seq word (last\n\
          \       data chunk carries the last bit — no terminator frame) and\n\
          \       send one response frame per chunk; the response is cleared\n\
          \       for the handler to fill the next chunk. *)\n\
          \    let emit_%s s ~dst ~id cur ~last =\n\
          \      Wire.Dyn.set_int_at s.s_resp resp_id id;\n\
          \      Wire.Dyn.set_int_at s.s_resp resp_seq (Rpc.Stream.next cur ~last);\n\
          \      s.s_send ~dst s.s_resp;\n\
          \      Wire.Dyn.clear s.s_resp\n"
          m.Schema.Desc.meth_name n)
    methods;
  Buffer.add_string buf "  end\n\n";
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
      List.iter
        (fun (name, role, callee, _) -> fn (subst n name) role callee)
        (builder f))
    m.Schema.Desc.fields;
  fn "object_len" "len" "Cornflakes.Format_.object_len";
  fn "reader" "alloc" "Wire.Reader.create";
  fn "read_folded" "reader"
    (if Layout.foldable (Array.length m.Schema.Desc.fields) then
       "Wire.Reader.validate_folded"
     else "Wire.Reader.validate");
  fn "write_folded" "writer" "Cornflakes.Format_.write_msg_generic";
  fn "send" "send" "Cornflakes.Send.send_planned";
  fn "release" "release" "Wire.Dyn.release";
  fn "In_place.decode" "reader" "Wire.Reader.validate";
  fn "In_place.key_off" "accessor" "Wire.Reader.key_off";
  fn "In_place.key_len" "accessor" "Wire.Reader.key_len";
  fn "Parsed.create" "alloc" "-";
  fn "Parsed.finish" "release" "Wire.Dyn.release";
  fn "decoder" "alloc" "Parsed.create";
  List.iter
    (fun a ->
      fn ("In_place." ^ a.name) "getter" (callee a.in_place);
      fn ("Parsed." ^ a.name) "getter" (callee a.parsed))
    (message_accessors m)

let ir_service buf (s : Schema.Desc.service) =
  let mn = service_module_name s in
  let fn name role callee =
    Printf.bprintf buf "fn %s.%s role=%s callee=%s\n" mn name role callee
  in
  fn "svc" "desc" "Schema.Desc.service";
  fn "Server.server" "alloc" "Rpc.Table.create";
  Array.iter
    (fun (m : Schema.Desc.method_) ->
      fn ("Server.on_" ^ ocaml_name m.Schema.Desc.meth_name) "setter"
        "Rpc.Table.set")
    s.Schema.Desc.methods;
  fn "Server.method_of" "getter" "D.op";
  fn "Server.serve" "reader" "Rpc.Table.dispatch";
  Array.iter
    (fun (m : Schema.Desc.method_) ->
      if m.Schema.Desc.stream then
        fn ("Server.emit_" ^ ocaml_name m.Schema.Desc.meth_name) "send"
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

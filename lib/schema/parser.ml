exception Parse_error of string

type state = { mutable tokens : Lexer.token list }

let peek st = match st.tokens with [] -> Lexer.Eof | t :: _ -> t

let advance st =
  match st.tokens with [] -> () | _ :: rest -> st.tokens <- rest

let expect st tok =
  let got = peek st in
  if got = tok then advance st
  else
    raise
      (Parse_error
         (Printf.sprintf "expected %s but found %s" (Lexer.token_to_string tok)
            (Lexer.token_to_string got)))

let expect_ident st =
  match peek st with
  | Lexer.Ident s ->
      advance st;
      s
  | got ->
      raise
        (Parse_error
           (Printf.sprintf "expected an identifier but found %s"
              (Lexer.token_to_string got)))

let expect_int st =
  match peek st with
  | Lexer.Int_lit i ->
      advance st;
      i
  | got ->
      raise
        (Parse_error
           (Printf.sprintf "expected an integer but found %s"
              (Lexer.token_to_string got)))

let field_type_of_name = function
  | "bool" -> Desc.Scalar Desc.Bool
  | "int32" -> Desc.Scalar Desc.Int32
  | "int64" -> Desc.Scalar Desc.Int64
  | "uint32" -> Desc.Scalar Desc.UInt32
  | "uint64" -> Desc.Scalar Desc.UInt64
  | "double" -> Desc.Scalar Desc.Float64
  | "string" -> Desc.Str
  | "bytes" -> Desc.Bytes
  | other -> Desc.Message other

let parse_field st =
  let label =
    match peek st with
    | Lexer.Ident "repeated" ->
        advance st;
        Desc.Repeated
    | _ -> Desc.Singular
  in
  let ty = field_type_of_name (expect_ident st) in
  let field_name = expect_ident st in
  expect st Lexer.Equals;
  let number = expect_int st in
  (* proto-style field options: [max_size = N]. *)
  let max_size = ref None in
  if peek st = Lexer.Lbracket then begin
    advance st;
    let rec options () =
      (match expect_ident st with
      | "max_size" ->
          expect st Lexer.Equals;
          max_size := Some (expect_int st)
      | other ->
          raise
            (Parse_error
               (Printf.sprintf "unknown field option %S (supported: max_size)"
                  other)));
      if peek st <> Lexer.Rbracket then options ()
    in
    options ();
    expect st Lexer.Rbracket
  end;
  expect st Lexer.Semi;
  { Desc.field_name; number; label; ty; max_size = !max_size }

let parse_message st =
  expect st (Lexer.Ident "message");
  let msg_name = expect_ident st in
  expect st Lexer.Lbrace;
  let fields = ref [] in
  while peek st <> Lexer.Rbrace do
    fields := parse_field st :: !fields
  done;
  expect st Lexer.Rbrace;
  let fields =
    List.sort (fun a b -> compare a.Desc.number b.Desc.number) (List.rev !fields)
  in
  Desc.make_message msg_name (Array.of_list fields)

(* One method declaration:
     rpc Name (ReqType) returns (RespType) [stream deadline_ms=N];
   The method id defaults to the declaration index; an explicit
   [rpc Name (Req) returns (Resp) = 4;] pins it. Options ride a
   space-separated proto-style bracket list after the returns clause (and
   after the explicit id when one is given). *)
let parse_method st ~default_id =
  expect st (Lexer.Ident "rpc");
  let meth_name = expect_ident st in
  expect st Lexer.Lparen;
  let req_type = expect_ident st in
  expect st Lexer.Rparen;
  expect st (Lexer.Ident "returns");
  expect st Lexer.Lparen;
  let resp_type = expect_ident st in
  expect st Lexer.Rparen;
  let meth_id =
    if peek st = Lexer.Equals then begin
      advance st;
      expect_int st
    end
    else default_id
  in
  let stream = ref false in
  let deadline_ms = ref None in
  if peek st = Lexer.Lbracket then begin
    advance st;
    let rec options () =
      (match expect_ident st with
      | "stream" -> stream := true
      | "deadline_ms" ->
          expect st Lexer.Equals;
          deadline_ms := Some (expect_int st)
      | other ->
          raise
            (Parse_error
               (Printf.sprintf
                  "unknown method option %S (supported: stream, deadline_ms)"
                  other)));
      if peek st <> Lexer.Rbracket then options ()
    in
    options ();
    expect st Lexer.Rbracket
  end;
  expect st Lexer.Semi;
  {
    Desc.meth_name;
    meth_id;
    req_type;
    resp_type;
    stream = !stream;
    deadline_ms = !deadline_ms;
  }

let parse_service st =
  expect st (Lexer.Ident "service");
  let svc_name = expect_ident st in
  expect st Lexer.Lbrace;
  let methods = ref [] in
  while peek st <> Lexer.Rbrace do
    methods := parse_method st ~default_id:(List.length !methods) :: !methods
  done;
  expect st Lexer.Rbrace;
  { Desc.svc_name; methods = Array.of_list (List.rev !methods) }

let parse_syntax st =
  match peek st with
  | Lexer.Ident "syntax" ->
      advance st;
      expect st Lexer.Equals;
      (match peek st with
      | Lexer.Str_lit s ->
          advance st;
          if s <> "proto3" && s <> "proto2" then
            raise (Parse_error (Printf.sprintf "unsupported syntax %S" s))
      | got ->
          raise
            (Parse_error
               (Printf.sprintf "expected a string after syntax = but found %s"
                  (Lexer.token_to_string got))));
      expect st Lexer.Semi
  | _ -> ()

let parse_raw src =
  let st = { tokens = Lexer.tokenize src } in
  parse_syntax st;
  let messages = ref [] in
  let services = ref [] in
  while peek st <> Lexer.Eof do
    match peek st with
    | Lexer.Ident "service" -> services := parse_service st :: !services
    | _ -> messages := parse_message st :: !messages
  done;
  { Desc.messages = List.rev !messages; services = List.rev !services }

let parse src =
  let t = parse_raw src in
  match Desc.validate t with
  | Ok () -> t
  | Error e -> raise (Parse_error e)

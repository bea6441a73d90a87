type scalar = Bool | Int32 | Int64 | UInt32 | UInt64 | Float64

type field_type =
  | Scalar of scalar
  | Str
  | Bytes
  | Message of string

type label = Singular | Repeated

type field = {
  field_name : string;
  number : int;
  label : label;
  ty : field_type;
  max_size : int option;
      (** declared payload-size bound from a [[max_size=N]] field option;
          drives the zero-copy crossover lint *)
}

type columns = {
  col : int array;
  n_payload : int;
  n_nested : int;
  n_scalar_list : int;
  n_payload_list : int;
  n_nested_list : int;
}

type message = { msg_name : string; fields : field array; columns : columns }

type method_ = {
  meth_name : string;
  meth_id : int;
      (** compact method-id word carried in the request envelope's [op]
          field; the generated dispatch table is indexed by it *)
  req_type : string; (* request message name *)
  resp_type : string; (* response message name *)
  stream : bool; (* [stream]: the response is a chunk sequence *)
  deadline_ms : int option; (* [deadline_ms=N]: per-method deadline *)
}

type service = { svc_name : string; methods : method_ array }

type t = { messages : message list; services : service list }

let scalar_to_string = function
  | Bool -> "bool"
  | Int32 -> "int32"
  | Int64 -> "int64"
  | UInt32 -> "uint32"
  | UInt64 -> "uint64"
  | Float64 -> "double"

let field_type_to_string = function
  | Scalar s -> scalar_to_string s
  | Str -> "string"
  | Bytes -> "bytes"
  | Message m -> m

(* Number each field within the column of its storage kind, in schema
   order. Singular scalars live in the per-field word column and take no
   number. *)
let columns_of fields =
  let counts = Array.make 5 0 in
  let col =
    Array.map
      (fun f ->
        let k =
          match (f.label, f.ty) with
          | Singular, Scalar _ -> -1
          | Singular, (Str | Bytes) -> 0
          | Singular, Message _ -> 1
          | Repeated, Scalar _ -> 2
          | Repeated, (Str | Bytes) -> 3
          | Repeated, Message _ -> 4
        in
        if k < 0 then -1
        else begin
          let c = counts.(k) in
          counts.(k) <- c + 1;
          c
        end)
      fields
  in
  {
    col;
    n_payload = counts.(0);
    n_nested = counts.(1);
    n_scalar_list = counts.(2);
    n_payload_list = counts.(3);
    n_nested_list = counts.(4);
  }

let make_message msg_name fields =
  { msg_name; fields; columns = columns_of fields }

let find_message t name =
  List.find_opt (fun m -> m.msg_name = name) t.messages

let message t name =
  match find_message t name with
  | Some m -> m
  | None -> raise Not_found

let rec field_index_from fields name i =
  if i >= Array.length fields then raise Not_found
  else if String.equal (Array.unsafe_get fields i).field_name name then i
  else field_index_from fields name (i + 1)

let field_index msg name = field_index_from msg.fields name 0 [@@alloc_free]

let field msg name = msg.fields.(field_index msg name)

let service t name = List.find (fun s -> s.svc_name = name) t.services

let rec method_index_from methods name i =
  if i >= Array.length methods then raise Not_found
  else if String.equal methods.(i).meth_name name then i
  else method_index_from methods name (i + 1)

let method_index svc name = method_index_from svc.methods name 0

let method_ svc name = svc.methods.(method_index svc name)

(* Dispatch tables are indexed by the method-id word; they must cover
   [0 .. max_method_id]. Ids are validated dense-ish (unique, >= 0), so
   this is [Array.length methods - 1] unless ids were declared sparse. *)
let max_method_id svc =
  Array.fold_left (fun acc m -> max acc m.meth_id) (-1) svc.methods

(* The service envelope contract (v1): every method of a service shares
   one request and one response message type; the request envelope carries
   the method-id word in a singular scalar field named "op" and the
   request id in "id"; the response envelope echoes "id"; a service with
   streamed methods additionally threads the chunk seq word through the
   response's "seq" field. Per-method payload variation rides optional
   fields of the shared envelope — the same shape the kv protocol already
   uses — which is what lets the server validate every incoming frame
   with one pooled reader before it knows the method. *)
let envelope_scalar msg name =
  match Array.find_opt (fun f -> f.field_name = name) msg.fields with
  | Some { label = Singular; ty = Scalar (UInt32 | UInt64 | Int32 | Int64); _ }
    ->
      Ok ()
  | Some _ ->
      Error
        (Printf.sprintf "field %s.%s must be a singular integer scalar"
           msg.msg_name name)
  | None ->
      Error (Printf.sprintf "message %s lacks required field %S" msg.msg_name name)

let validate t =
  let module SS = Set.Make (String) in
  let module IS = Set.Make (Int) in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let names = ref SS.empty in
  let check_message m =
    if SS.mem m.msg_name !names then
      Error (Printf.sprintf "duplicate message %s" m.msg_name)
    else begin
      names := SS.add m.msg_name !names;
      let fnames = ref SS.empty and fnums = ref IS.empty in
      let check_field acc f =
        match acc with
        | Error _ as e -> e
        | Ok () ->
            if SS.mem f.field_name !fnames then
              Error
                (Printf.sprintf "duplicate field %s.%s" m.msg_name f.field_name)
            else if IS.mem f.number !fnums then
              Error
                (Printf.sprintf "duplicate field number %d in %s" f.number
                   m.msg_name)
            else if f.number <= 0 then
              Error
                (Printf.sprintf "non-positive field number in %s.%s" m.msg_name
                   f.field_name)
            else begin
              fnames := SS.add f.field_name !fnames;
              fnums := IS.add f.number !fnums;
              match f.max_size with
              | Some n when n < 0 ->
                  Error
                    (Printf.sprintf "negative max_size in %s.%s" m.msg_name
                       f.field_name)
              | _ -> (
                  match f.ty with
                  | Message target when find_message t target = None ->
                      Error
                        (Printf.sprintf "unresolved message type %s in %s.%s"
                           target m.msg_name f.field_name)
                  | _ -> Ok ())
            end
      in
      Array.fold_left check_field (Ok ()) m.fields
    end
  in
  let check_sorted m =
    let ok = ref (Ok ()) in
    Array.iteri
      (fun i f ->
        if i > 0 && m.fields.(i - 1).number >= f.number then
          ok :=
            Error (Printf.sprintf "fields of %s not sorted by number" m.msg_name))
      m.fields;
    !ok
  in
  let check_service s =
    if Array.length s.methods = 0 then
      Error (Printf.sprintf "service %s has no methods" s.svc_name)
    else begin
      let mnames = ref SS.empty and mids = ref IS.empty in
      let req0 = s.methods.(0).req_type and resp0 = s.methods.(0).resp_type in
      let check_method acc m =
        let* () = acc in
        if SS.mem m.meth_name !mnames then
          Error
            (Printf.sprintf "duplicate method %s.%s" s.svc_name m.meth_name)
        else if IS.mem m.meth_id !mids then
          Error
            (Printf.sprintf "duplicate method id %d in service %s" m.meth_id
               s.svc_name)
        else if m.meth_id < 0 then
          Error
            (Printf.sprintf "negative method id in %s.%s" s.svc_name
               m.meth_name)
        else begin
          mnames := SS.add m.meth_name !mnames;
          mids := IS.add m.meth_id !mids;
          let* () =
            match m.deadline_ms with
            | Some d when d <= 0 ->
                Error
                  (Printf.sprintf "non-positive deadline_ms in %s.%s"
                     s.svc_name m.meth_name)
            | _ -> Ok ()
          in
          (* v1 envelope rule: one request/response envelope per service,
             so the skeleton validates frames before knowing the method. *)
          let* () =
            if m.req_type <> req0 || m.resp_type <> resp0 then
              Error
                (Printf.sprintf
                   "service %s: method %s uses (%s, %s) but the service \
                    envelope is (%s, %s) — all methods of a service share \
                    one request/response envelope"
                   s.svc_name m.meth_name m.req_type m.resp_type req0 resp0)
            else Ok ()
          in
          match (find_message t m.req_type, find_message t m.resp_type) with
          | None, _ ->
              Error
                (Printf.sprintf "unresolved request type %s in %s.%s"
                   m.req_type s.svc_name m.meth_name)
          | _, None ->
              Error
                (Printf.sprintf "unresolved response type %s in %s.%s"
                   m.resp_type s.svc_name m.meth_name)
          | Some req, Some resp ->
              let* () = envelope_scalar req "op" in
              let* () = envelope_scalar req "id" in
              let* () = envelope_scalar resp "id" in
              if m.stream then envelope_scalar resp "seq" else Ok ()
        end
      in
      Array.fold_left check_method (Ok ()) s.methods
    end
  in
  let* () =
    List.fold_left
      (fun acc m ->
        match acc with
        | Error _ as e -> e
        | Ok () -> (
            match check_message m with Ok () -> check_sorted m | e -> e))
      (Ok ()) t.messages
  in
  let snames = ref SS.empty in
  List.fold_left
    (fun acc s ->
      match acc with
      | Error _ as e -> e
      | Ok () ->
          if SS.mem s.svc_name !snames then
            Error (Printf.sprintf "duplicate service %s" s.svc_name)
          else begin
            snames := SS.add s.svc_name !snames;
            check_service s
          end)
    (Ok ()) t.services

(** Message descriptors — the compiled form of a schema file.

    Cornflakes reuses Protobuf's schema language (§3): a schema is a set of
    messages; each message has numbered fields that are scalars, strings,
    bytes, or (possibly repeated) nested messages. *)

type scalar = Bool | Int32 | Int64 | UInt32 | UInt64 | Float64

type field_type =
  | Scalar of scalar
  | Str
  | Bytes
  | Message of string (* referenced message, resolved via the schema *)

type label = Singular | Repeated

type field = {
  field_name : string;
  number : int; (* wire tag, unique within the message *)
  label : label;
  ty : field_type;
  max_size : int option;
      (* declared payload-size bound ([max_size=N] field option); informs
         the zero-copy crossover lint, never enforced on the wire *)
}

(** Where an in-memory message ([Wire.Dyn]) keeps each field: singular
    scalars in a per-field 8-byte word column, every other kind in a
    column of its own. [col.(i)] numbers field [i] within its kind's
    column (singular payload, singular nested, repeated scalar, repeated
    payload, repeated nested), in schema order; [-1] for singular
    scalars. The [n_*] fields size the columns. *)
type columns = {
  col : int array;
  n_payload : int;
  n_nested : int;
  n_scalar_list : int;
  n_payload_list : int;
  n_nested_list : int;
}

type message = {
  msg_name : string;
  fields : field array; (* sorted by [number] *)
  columns : columns; (* derived from [fields] by {!make_message} *)
}

(** One RPC method of a [service] declaration. The generated dispatch
    table is indexed by [meth_id] (the compact method-id word the request
    envelope carries in its [op] field). *)
type method_ = {
  meth_name : string;
  meth_id : int;
  req_type : string;
  resp_type : string;
  stream : bool; (* [stream]: the response is a chunk sequence *)
  deadline_ms : int option; (* [deadline_ms=N]: per-method deadline *)
}

type service = { svc_name : string; methods : method_ array }

type t = { messages : message list; services : service list }

val scalar_to_string : scalar -> string

val field_type_to_string : field_type -> string

(** [make_message name fields] builds a descriptor, numbering the storage
    columns. *)
val make_message : string -> field array -> message

(** [message t name] finds a message by name. Raises [Not_found]. *)
val message : t -> string -> message

val find_message : t -> string -> message option

(** [field msg name] finds a field by name. Raises [Not_found]. *)
val field : message -> string -> field

(** [field_index msg name] is the index into [msg.fields].
    Raises [Not_found]. *)
val field_index : message -> string -> int

(** [service t name] finds a service by name. Raises [Not_found]. *)
val service : t -> string -> service

(** [method_ svc name] finds a method by name. Raises [Not_found]. *)
val method_ : service -> string -> method_

(** [method_index svc name] is the index into [svc.methods].
    Raises [Not_found]. *)
val method_index : service -> string -> int

(** Largest declared method id; dispatch tables cover [0 .. max]. *)
val max_method_id : service -> int

(** [validate t] checks field-number uniqueness, name uniqueness, size-bound
    sanity ([0 <= max_size]), that every [Message] reference
    resolves, and the service contract: unique non-negative method ids, one
    request/response envelope per service, and the envelope fields the
    generated stubs dispatch on ([op]/[id] in the request, [id] — plus
    [seq] for streamed methods — in the response). Returns an error
    description on failure. *)
val validate : t -> (unit, string) result

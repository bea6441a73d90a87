(** Dynamic messages: descriptor-driven in-memory objects.

    The OCaml analogue of the structs the Cornflakes compiler generates from
    a schema (Listing 1). Storage is index-addressed columns (a presence
    bitmap, an 8-byte word per field for scalars, arrays for payloads,
    nested messages and repeated elements; see [Schema.Desc.columns]):
    generated code and the serializers use the allocation-free index API,
    tests and decoders may use the by-name API over boxed {!value}s. All
    serializers (Cornflakes and the baselines) operate on [Dyn.t]. *)

type value =
  | Int of int64 (* all scalar ints/bools; width comes from the schema *)
  | Float of float
  | Payload of Payload.t (* bytes/string *)
  | Nested of t
  | List of value list (* repeated field contents, in order *)

and t

exception Type_error of string

val create : Schema.Desc.message -> t

(** A message of no fields: the placeholder empty slots hold (cleared
    nested slots, resolved call slots), so a stale message is not kept
    alive. *)
val vacant : t

val desc : t -> Schema.Desc.message

(** [set t name v] sets a field; checks the value kind against the schema
    ([Type_error] on mismatch). Repeated fields take a [List]. *)
val set : t -> string -> value -> unit

val get : t -> string -> value option

val clear_field : t -> string -> unit

(** [append t name v] appends an element to a repeated field. *)
val append : t -> string -> value -> unit

(* Conveniences. *)

val set_int : t -> string -> int64 -> unit

val get_int : t -> string -> int64 option

val set_payload : t -> string -> Payload.t -> unit

val get_payload : t -> string -> Payload.t option

val set_string : t -> Mem.Addr_space.t -> string -> string -> unit

val get_list : t -> string -> value list

(** Fields present, in schema (field-number) order, as boxed values
    (tests and cold paths). *)
val iter_present : t -> (int -> Schema.Desc.field -> value -> unit) -> unit

(** {2 Index API}

    Fields addressed by schema position [i] (the generated [idx_*]
    constants). Nothing here allocates, except an [append_*] that outgrows
    its element array. Each accessor must be applied to a field of its
    kind: the by-name API checks kinds, this one trusts the caller
    (generated code is correct by construction; a mismatch raises
    [Invalid_argument] from an array bound, never corrupts). *)

(** [mem t i]: field [i] is present. *)
val mem : t -> int -> bool

(** Bitmap word [j] (fields [32j .. 32j+31]) exactly as the wire carries
    it. *)
val bitmap_word : t -> int -> int

val set_int_at : t -> int -> int64 -> unit

(** [set_int_of_int t i v] stores [Int64.of_int v] without boxing it: the
    entry point for u64 stamps held as native ints (request ids). *)
val set_int_of_int : t -> int -> int -> unit

val set_float_at : t -> int -> float -> unit

val int_at : t -> int -> int64

val int_of_int_at : t -> int -> int

val float_at : t -> int -> float

val set_payload_at : t -> int -> Payload.t -> unit

val payload_at : t -> int -> Payload.t

val set_nested_at : t -> int -> t -> unit

val nested_at : t -> int -> t

(** [touch_list t i] marks repeated field [i] present, keeping its
    elements (none after a [clear]). *)
val touch_list : t -> int -> unit

val append_int_at : t -> int -> int64 -> unit

val append_float_at : t -> int -> float -> unit

val append_payload_at : t -> int -> Payload.t -> unit

val append_nested_at : t -> int -> t -> unit

(** Element count of repeated field [i] (0 when absent). *)
val count : t -> int -> int

val elem_int : t -> int -> int -> int64

val elem_float : t -> int -> int -> float

val elem_payload : t -> int -> int -> Payload.t

val elem_nested : t -> int -> int -> t

(** [write_scalar t i w ~pos] stores singular scalar [i]'s 8 bytes at
    [pos] ([Cursor.Writer.word_at]); [write_elem_scalar t i j w ~pos] does
    the same for element [j] of a repeated scalar field. *)
val write_scalar : t -> int -> Cursor.Writer.t -> pos:int -> unit

val write_elem_scalar : t -> int -> int -> Cursor.Writer.t -> pos:int -> unit

(** [set_int_of_reader t i r j] copies u64 field [j] of the frame [r]
    validated into field [i], byte for byte (charged like
    [Reader.get_u64]). *)
val set_int_of_reader : t -> int -> Reader.t -> int -> unit

val present_count : t -> int

(** Sum of the byte lengths of all payloads, recursively. *)
val payload_bytes : t -> int

(** Release every [Zero_copy] payload reference, recursively. Call when the
    message will no longer be read (e.g. after the response is handed to the
    stack, which holds its own references). *)
val release : ?cpu:Memmodel.Cpu.t -> t -> unit

(** [clear t] blanks every field so the object can be rebuilt in place
    (pooled per endpoint instead of allocated per request). Vacated object
    slots are reset to shared constants, so a stale payload or child is
    not kept alive; repeated element arrays keep their capacity, so a
    rebuild allocates nothing. Does NOT release payload references — use
    it when ownership already moved (e.g. the stack took the zero-copy refs
    at send). *)
val clear : t -> unit

(** [reset ?cpu t] = [release] then [clear]: drop any payload references the
    message still owns, then blank it for reuse. *)
val reset : ?cpu:Memmodel.Cpu.t -> t -> unit

(** [map_payloads t f] rewrites every payload in place (depth-first, field
    order) — used to demote zero-copy entries when a message exceeds the
    NIC's gather limit. *)
val map_payloads : t -> (Payload.t -> Payload.t) -> unit

(** Payloads in serialization traversal order (depth-first, field order). *)
val fold_payloads : t -> init:'a -> f:('a -> Payload.t -> 'a) -> 'a

(** Structural equality of contents (payload bytes compared by value);
    for tests. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

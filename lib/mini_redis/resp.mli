(** RESP2 — the Redis serialization protocol.

    A faithful implementation of the wire format Redis uses for both
    requests and its handwritten replies: simple strings, errors, integers,
    bulk strings, arrays, and null bulks. Bulk payloads decode as zero-copy
    windows; encoding copies payload bytes into the output (that copy is
    Redis's serialization cost, the thing Cornflakes removes). *)

type value =
  | Simple of string
  | Error of string
  | Int of int
  | Bulk of Mem.View.t
  | Null
  | Array of value list

exception Protocol_error of string

(** Encoded size in bytes. *)
val encoded_len : value -> int

(** [encode w v] writes the RESP encoding into [w], charging [w]'s meter. *)
val encode : Wire.Cursor.Writer.t -> value -> unit

(** [decode ~cpu view] parses one RESP value (must consume the window
    exactly). Bulk contents are windows into [view]. *)
val decode : cpu:Memmodel.Cpu.t -> Mem.View.t -> value

(** Convenience for tests: encode to a string. *)
val to_string : Mem.Addr_space.t -> value -> string

(** Structural equality, comparing bulks by content. *)
val equal : value -> value -> bool

val pp : Format.formatter -> value -> unit

(** Build a command (array of bulk strings) — the request format. *)
val command : Mem.Addr_space.t -> string list -> value

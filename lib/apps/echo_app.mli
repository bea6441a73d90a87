(** The echo server (§2.2, §6.1.2): almost no application logic — the
    server deserializes the request and reserializes it back. Cornflakes
    validates the request once and reads its fields in place
    ([Wire.Reader]); because the receive buffer is pinned, its reserialize
    recovers those fields zero-copy. The copying libraries parse into a
    [Wire.Dyn] and re-copy them. A frame that fails its decoder is
    dropped and counted ([Loadgen.Server.rejected]).

    Besides the library-backed echo, this module provides the manual
    handlers of Figure 1/2: raw forward (no serialization), zero-copy
    scatter-gather (raw or with safety costs), one-copy and two-copy. *)

type mode =
  | Lib of Backend.t
  | No_serialization
  | Zero_copy_raw
  | Zero_copy_safe
  | One_copy
  | Two_copy

val mode_name : mode -> string

type t

(** [install rig mode] sets up the echo handler. *)
val install : Rig.t -> mode -> t

(** [send_request t ~sizes client ~dst ~id] sends an echo request whose
    payload is a list of fields with the given sizes. *)
val send_request :
  t -> sizes:int list -> Net.Transport.t -> dst:int -> id:int -> unit

(** Response-id parser; [None] for the manual modes (FIFO matching). *)
val parse_id : t -> (Mem.Pinned.Buf.t -> int) option

(** Deadline clock for schema-declared [deadline_ms=N] method options. *)

(** Raises [Invalid_argument] on a non-positive deadline. *)
val ns_of_ms : int -> int

(** Absolute engine time at which a deadline declared now expires. *)
val expiry : Sim.Engine.t -> deadline_ms:int -> int

val remaining_ns : Sim.Engine.t -> expiry:int -> int

val expired : Sim.Engine.t -> expiry:int -> bool

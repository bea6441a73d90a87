(** Cornflakes runtime configuration.

    The two knobs the paper evaluates:

    - [zero_copy_threshold]: bytes/string fields at least this large are
      candidates for scatter-gather; smaller fields are copied. 512 B is the
      value the measurement study derives (§5); [0] gives the all-scatter-
      gather configuration and [max_int] the all-copy configuration used in
      Figure 12 / Table 4.
    - [serialize_and_send]: when on, the object header and copied fields
      share the gather entry carrying the packet header (§3.2.3); when off,
      Cornflakes materialises a scatter-gather array and the stack prepends
      a separate header entry (Table 5).

    Pressure demotion is not a knob: the send path always demotes
    zero-copy fields to arena copies when the endpoint reports memory
    pressure (TX ring backing up, completions pinned) — graceful
    degradation instead of unbounded reference pinning. Healthy runs
    never trigger it. *)

type t = { zero_copy_threshold : int; serialize_and_send : bool }

(** Threshold 512, serialize-and-send on. *)
val default : t

(** Threshold 0: scatter-gather every bytes/string field in pinned memory. *)
val all_zero_copy : t

(** Threshold ∞: copy every field. *)
val all_copy : t

val with_threshold : int -> t

(** Whether the RefSan zero-copy safety sanitizer is recording (set by
    [CF_SANITIZE=1] in the environment, {!set_sanitize}, or
    [bench --sanitize]). *)
val sanitize : unit -> bool

val set_sanitize : bool -> unit

val pp : Format.formatter -> t -> unit

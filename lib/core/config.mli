(** Cornflakes runtime configuration.

    The two knobs the paper evaluates:

    - [zero_copy]: the copy/zero-copy policy cell ({!Adaptive.t}). Bytes/
      string fields at least its threshold long are candidates for
      scatter-gather; smaller fields are copied. The config seeds the
      cell; only {!Adaptive} writes it, and only a learning one (§7). The
      constants below hold fixed cells: 512 B, the value the measurement
      study derives (§5), [0] (all scatter-gather) and [max_int] (all
      copy, Figure 12 / Table 4).
    - [serialize_and_send]: when on, the object header and copied fields
      share the gather entry carrying the packet header (§3.2.3); when off,
      Cornflakes materialises a scatter-gather array and the stack prepends
      a separate header entry (Table 5).

    Pressure demotion is not a knob: the send path always demotes
    zero-copy fields to arena copies when the endpoint reports memory
    pressure (TX ring backing up, completions pinned) — graceful
    degradation instead of unbounded reference pinning. Healthy runs
    never trigger it. *)

type t = { zero_copy : Adaptive.t; serialize_and_send : bool }

(** Fixed threshold 512, serialize-and-send on. *)
val default : t

(** Fixed threshold 0: scatter-gather every bytes/string field. *)
val all_zero_copy : t

(** Fixed threshold ∞: copy every field. *)
val all_copy : t

(** [with_threshold n] — {!default} with the cell fixed at [n]. *)
val with_threshold : int -> t

(** Whether the RefSan zero-copy safety sanitizer is recording (set by
    [CF_SANITIZE=1] in the environment, {!set_sanitize}, or
    [bench --sanitize]). *)
val sanitize : unit -> bool

val set_sanitize : bool -> unit

(** Shared measurement machinery for the paper-reproduction experiments. *)

(** Run lengths. [quick] shrinks everything for smoke runs. *)
type budget = {
  cap_ns : int; (* closed-loop capacity run *)
  point_ns : int; (* one open-loop load point *)
  warmup_ns : int;
  curve_fractions : float list; (* offered load as fraction of capacity *)
  fault_point_ns : int; (* one faulted closed-loop point (bench faults) *)
  fault_loss_rates : float list; (* degradation-curve loss rates *)
}

(** Selected by [set_quick]; consulted by every experiment. *)
val budget : unit -> budget

val set_quick : bool -> unit

(** Whether the quick budget is active — for experiments that also scale
    non-time knobs (connection-table width, shard counts) down in CI. *)
val is_quick : unit -> bool

(** [par_map f xs] maps [f] over [xs] on the parallel harness (width =
    [Par.Pool.default_jobs ()], i.e. the --jobs flag), preserving order.
    Each call of [f] must be self-contained (own rig/engine/space). *)
val par_map : ('a -> 'b) -> 'a list -> 'b list

(** [with_rig_life f x] is [f x], followed by a [Gc.full_major] that
    collects the rig [f] built (and dropped): one rig per configuration
    stays resident, whatever the GC's pacing. *)
val with_rig_life : ('a -> 'b) -> 'a -> 'b

type driver = {
  send : Net.Transport.t -> dst:int -> id:int -> unit;
  parse_id : (Mem.Pinned.Buf.t -> int) option;
}

(** [capacity rig d] — saturation throughput (closed loop). *)
val capacity : Apps.Rig.t -> driver -> Loadgen.Driver.result

(** [curve rig d ~name ~capacity_rps] — open-loop sweep over the budget's
    fractions of [capacity_rps]. *)
val curve :
  Apps.Rig.t -> driver -> name:string -> capacity_rps:float -> Stats.Curve.t

(** [tput_at_slo curves ~slo_ns] rows of (name, krps-at-SLO or max valid). *)
val tput_at_slo : Stats.Curve.t -> slo_ns:int -> float

(** Format helpers. *)
val krps : float -> string

val gbps : float -> string

val pct_delta : float -> float -> string

(** [print_curves title curves] prints the full throughput–latency series
    (one block per system), then a summary at the SLO. *)
val print_curves : title:string -> slo_ns:int -> Stats.Curve.t list -> unit

(** The custom key-value store application (§6.1.2), parameterised by a
    serialization backend.

    The server is the generated [Kv_service.Server] skeleton over the one
    decoder of the backend's wire format, chosen when the server is built:
    Cornflakes frames are validated once and read in place
    ([Req.In_place]), the baselines parse into a [Wire.Dyn]
    ([Req.Parsed]). Each method's handler, written once against [Req.R],
    looks keys up in the store, wraps each value buffer through the
    backend (Cornflakes: hybrid CFPtr; baselines: literal views copied at
    serialization time), and sends a [Resp] with the combined
    serialize-and-send path of the backend. Puts allocate new
    pinned buffers and swap pointers — never updating values in place — per
    the Cornflakes memory-safety model (§4.1). *)

type t

(** [install rig ~backend ~workload] populates a store per the workload and
    installs the request handler on the rig's server. *)
val install : Rig.t -> backend:Backend.t -> workload:Workload.Spec.t -> t

(** [switch_backend t backend] reuses the populated store and pool under a
    different serializer (avoids re-populating between systems). *)
val switch_backend : t -> Backend.t -> t

(** Turn on resilience mode: duplicate requests (retransmissions,
    fabric-duplicated frames) are witnessed against [dedup]; duplicate
    puts are suppressed (answered with an id-only ack) while gets — being
    idempotent — are re-executed to regenerate a lost response. Client
    side, [send_next] replays the cached op for a retried id instead of
    drawing a fresh one. *)
val enable_resilience : t -> dedup:Net.Dedup.t -> unit

val dedup : t -> Net.Dedup.t option

(** Duplicate puts suppressed by the dedup window. *)
val puts_suppressed : t -> int

(** Per-request-id put application counts (resilience mode only), sorted
    by id — every count must be 1 for exactly-once semantics. *)
val put_apply_counts : t -> (int * int) list

val store : t -> Kvstore.Store.t

(** Client-side request sender for a workload op. *)
val send_op :
  t -> Workload.Spec.op -> Net.Transport.t -> dst:int -> id:int -> unit

(** Client-side generator: draws the next op from the workload. *)
val send_next : t -> Net.Transport.t -> dst:int -> id:int -> unit

(** Client-side response-id parser (uncharged; resets the client arena). *)
val parse_id : t -> Mem.Pinned.Buf.t -> int

(** Values served but not yet reclaimed by puts remain owned by the store;
    exposed for leak assertions in tests. *)
val pool : t -> Mem.Pinned.Pool.t

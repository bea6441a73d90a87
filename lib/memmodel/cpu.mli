(** Per-core cost meter.

    All substrate operations (copies, allocator metadata, refcounts, ring
    posts) charge cycles here, classified both by cache behaviour (through
    the hierarchy simulator) and by accounting category (for the Figure 11
    CPU breakdown). The request harness reads the accumulated cycle count
    before and after a handler runs to obtain the simulated service time. *)

type category =
  | Rx (* packet receive processing *)
  | Deser (* deserialization *)
  | App (* application logic: hash lookups, store access *)
  | Alloc (* allocation (arena, slab, message objects) *)
  | Copy (* data copies on the serialization path *)
  | Safety (* memory-safety metadata: refcounts, recover_ptr *)
  | Tx (* header writes, scatter-gather posts, doorbells *)
  | Other

val category_label : category -> string

val all_categories : category list

type t

(** [create ?shared_l3 params] builds a core with private L1/L2 and either a
    private L3 or the given shared one. *)
val create : ?shared_l3:Cache.t -> Params.t -> t

(** The unmetered meter, shared by every caller the simulation does not
    charge (client endpoints, preloads, tests). Every operation on it is a
    no-op that writes and allocates nothing, so one value serves every
    domain; [cycles none = 0.] and its breakdown is all zeros. Its
    [params] are [Params.default]. *)
val none : t

val params : t -> Params.t

(** [false] exactly for {!none}. *)
val metered : t -> bool

(** Fixed instruction costs, each named after its [Params] field
    ([Per_call] is [cost_per_call], ...). *)
type op =
  | Per_call
  | Arena_alloc
  | Slab_alloc
  | Hash_op
  | Refcount_op
  | Range_lookup
  | Rx_packet
  | Completion_per_sge
  | Vec_alloc

(** [charge t cat cycles] adds computed instruction cycles. *)
val charge : t -> category -> float -> unit

(** [charge_op t cat op] adds [op]'s [Params] cost. *)
val charge_op : t -> category -> op -> unit

(** [charge_ops t cat op n] adds [float_of_int n *.] [op]'s cost. *)
val charge_ops : t -> category -> op -> int -> unit

(** [charge_post t ~nsge] charges one TX ring post to [Tx]: [nsge]
    ring-entry writes, its doorbell, and the per-packet transmit cost. *)
val charge_post : t -> nsge:int -> unit

(** [stream t cat ~addr ~len] models a bulk (prefetchable) sweep over
    [addr, addr+len): per-line streaming cost by hit level. Used for both
    reads and write-allocate stores. *)
val stream : t -> category -> addr:int -> len:int -> unit

(** [latency_access t cat ~addr] models one dependent access to the line at
    [addr] (pointer chase / metadata): full load-to-use latency of the level
    hit. *)
val latency_access : t -> category -> addr:int -> unit

(** Total cycles accumulated since creation (monotonic). *)
val cycles : t -> float

(** [ns t] is [cycles t] converted to nanoseconds. *)
val ns : t -> float

(** Per-category cycle totals, for the Figure 11 breakdown. *)
val breakdown : t -> (category * float) list

val reset_breakdown : t -> unit

(** [install_dma t ~addr ~len] models device DMA with DDIO: the written
    lines land in the shared L3, free of CPU cycles. *)
val install_dma : t -> addr:int -> len:int -> unit

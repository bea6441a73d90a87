(** Single-core request server harness.

    Models the paper's single-core servers: packets arriving at the endpoint
    enter a bounded FIFO; the core serves one request at a time. A request's
    service time is whatever the cost meter accumulated while its handler
    ran (deserialization, store access, serialization, post). Responses the
    handler produced are released to the NIC only after the service time has
    elapsed (via the endpoint's send hold), and the next request starts
    after that too. The per-request arena is reset between requests. *)

type t

(** [create ?queue_limit tr] — the server's meter is [tr]'s
    ([Net.Transport.cpu]). Installs itself as the transport's message
    handler (works for either datapath: one call per datagram over UDP, one
    per reassembled record over TCP). *)
val create : ?queue_limit:int -> Net.Transport.t -> t

(** [set_handler t f] — [f ~src buf] owns one reference on [buf]. *)
val set_handler : t -> (src:int -> Mem.Pinned.Buf.t -> unit) -> unit

(** Fault injection: [f ~now] returns extra ns to stall the request being
    served (0 = no stall). The stall delays the response release and the
    next request alike — a forced slow consumer holding buffers longer. *)
val set_service_fault : t -> (now:int -> int) option -> unit

(** Total injected stall time so far. *)
val stalled_ns : t -> int

val served : t -> int

val dropped : t -> int

(** Mean service time (ns) over all served requests. *)
val mean_service_ns : t -> float

(** Busy fraction of wall-clock so far (approximate utilisation). *)
val busy_ns : t -> int

val cpu : t -> Memmodel.Cpu.t

val endpoint : t -> Net.Endpoint.t

(** The transport the server was created over (responses should go back
    through it). *)
val transport : t -> Net.Transport.t

(** Discrete-event simulation engine.

    Time is an [int] count of nanoseconds since simulation start. Events are
    closures executed at their scheduled instant; events scheduled for the
    same instant run in scheduling order. The whole reproduction — NIC DMA,
    packet flight, CPU service completion, client arrivals — is driven by one
    engine instance, which makes every experiment deterministic. *)

type t

val create : unit -> t

(** [now t] is the current simulated time in nanoseconds. *)
val now : t -> int

(** [schedule t ~after f] runs [f ()] at [now t + after] ns. [after] must be
    non-negative. *)
val schedule : t -> after:int -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f ()] at absolute [time], which must not be
    in the past. *)
val schedule_at : t -> time:int -> (unit -> unit) -> unit

(** [timer t ~after f] is {!schedule} that returns a handle for {!cancel}:
    a request's retransmit or deadline timer, cancelled when the request
    resolves so it never fires stale. Handles are positive ints, so [0]
    can stand for "no timer". *)
val timer : t -> after:int -> (unit -> unit) -> int

(** [cancel t handle] removes the timer's event from the queue. Cancelling
    a timer that already fired or was already cancelled does nothing, even
    after its queue slot went to another event. *)
val cancel : t -> int -> unit

(** [run t ~until] executes events in timestamp order until the queue is
    empty or the next event is after [until]; the clock finishes at [until]
    or at the last event time, whichever is larger. *)
val run : t -> until:int -> unit

(** [run_all t] drains the event queue completely. *)
val run_all : t -> unit

(** [pending t] is the number of queued events; cancelled timers are not
    counted. *)
val pending : t -> int

(** [add_quiesce_hook t f] registers [f] to run at {!quiesce}, after the
    event queue has drained — e.g. end-of-run invariant checks such as the
    RefSan leak report. Hooks run in registration order. *)
val add_quiesce_hook : t -> (unit -> unit) -> unit

(** [quiesce t] drains the queue ({!run_all}) and then runs the registered
    quiesce hooks. *)
val quiesce : t -> unit

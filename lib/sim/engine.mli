(** Discrete-event simulation engine.

    Time is an [int] count of nanoseconds since simulation start. Events are
    closures executed at their scheduled instant; events scheduled for the
    same instant run in scheduling order. The whole reproduction — NIC DMA,
    packet flight, CPU service completion, client arrivals — is driven by one
    engine instance, which makes every experiment deterministic. *)

type t

val create : unit -> t

(** Scheduling delay, in ns, from which an event waits in the engine's
    second, far-future queue (retransmit and reaper timers) instead of the
    queue of imminent events. The split only speeds up the event loop:
    events fire in [(time, scheduling order)] whichever queue holds them. *)
val horizon : int

(** [now t] is the current simulated time in nanoseconds. *)
val now : t -> int

(** [schedule t ~after f] runs [f ()] at [now t + after] ns. [after] must be
    non-negative. *)
val schedule : t -> after:int -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f ()] at absolute [time], which must not be
    in the past. *)
val schedule_at : t -> time:int -> (unit -> unit) -> unit

(** [run t ~until] executes events in timestamp order until the queue is
    empty or the next event is after [until]; the clock finishes at [until]
    or at the last event time, whichever is larger. *)
val run : t -> until:int -> unit

(** [run_all t] drains the event queue completely. *)
val run_all : t -> unit

(** [pending t] is the number of queued events, near and far. *)
val pending : t -> int

(** [add_quiesce_hook t f] registers [f] to run at {!quiesce}, after the
    event queue has drained — e.g. end-of-run invariant checks such as the
    RefSan leak report. Hooks run in registration order. *)
val add_quiesce_hook : t -> (unit -> unit) -> unit

(** [quiesce t] drains the queue ({!run_all}) and then runs the registered
    quiesce hooks. *)
val quiesce : t -> unit

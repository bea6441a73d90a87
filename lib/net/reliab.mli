(** Client-side reliability: per-request timeout + retry with exponential
    backoff and deterministic jitter.

    Datagram endpoints ({!Endpoint}) give no delivery guarantee, and
    Faultline can drop packets and completions at will; this layer makes a
    request loop survive that. Each tracked request re-arms a retransmit
    timer; on expiry it re-sends (same request id, so the server's
    duplicate suppression and the client's response matching both keep
    working) with the timeout growing by [backoff] per attempt, plus a
    jitter drawn from a [Sim.Rng] stream — deterministic per seed.

    The layer also owns the TX-ring reaper: while requests are
    outstanding it periodically invokes a caller-supplied reap callback
    (typically [Nic.Device.reap_lost] on every NIC) so descriptors whose
    CQE was lost get their references released. The reaper re-arms only
    while work is outstanding, so a quiescing engine still terminates. *)

type config = {
  timeout_ns : int;  (** base retransmission timeout *)
  max_retries : int;  (** re-sends after the initial attempt *)
  backoff : float;  (** timeout multiplier per attempt (>= 1.0) *)
  jitter : float;  (** +/- fraction of each timeout (in [0,1]) *)
  reap_period_ns : int;  (** reap callback period while outstanding *)
}

type t

(** [create ?config engine ~rng]. Without [config]: a 100 µs timeout, 4
    retries, backoff 2.0, jitter 0.1, a reap every 250 µs. The rng should
    be split from the experiment seed so retry jitter replays
    deterministically. Raises
    [Invalid_argument] on a non-positive timeout/period, negative
    retries, backoff < 1, or jitter outside [0,1]. *)
val create : ?config:config -> Sim.Engine.t -> rng:Sim.Rng.t -> t

(** [track ?deadline_ns t ~id ~send ~give_up] sends a request (calling
    [send] once, now) and arms its retransmit timer. [send] is re-invoked
    on each retry; [give_up] runs once if [max_retries] re-sends all time
    out. A [deadline_ns] (relative to now) clamps the retry budget: no
    retransmission whose timer would fire at or past the deadline is
    scheduled — instead the request resolves at the deadline itself,
    running [give_up] and counting as {!abandoned} (deterministic: the
    abandon time is the deadline, independent of jitter draws). Raises
    [Invalid_argument] if [id] is already tracked or the deadline is not
    positive.

    Per-request state lives in an id-indexed slot ring ({!Sim.Id_ring}),
    so ids should be dense, e.g. sequential: the ring grows to the span of
    outstanding ids. *)
val track :
  ?deadline_ns:int ->
  t ->
  id:int ->
  send:(unit -> unit) ->
  give_up:(unit -> unit) ->
  unit

(** Acknowledge a response. [`Acked] completes the request, cancels its
    queued timer and frees its slot; [`Duplicate] means the id was
    unknown — already acked, given up, or never tracked. *)
val ack : t -> id:int -> [ `Acked | `Duplicate ]

(** Install the reap callback (see module doc). *)
val set_reaper : t -> (unit -> unit) -> unit

(** Requests currently awaiting a response. *)
val outstanding : t -> int

(** Counters: requests tracked, retransmissions sent, timer expiries,
    requests abandoned after exhausting retries, first acks, and
    duplicate/late acks. *)
val tracked : t -> int

val retries : t -> int

val timeouts : t -> int

val give_ups : t -> int

(** Of the {!give_ups}, how many resolved at a deadline (always [<=]
    [give_ups]; a deadline abandon also counts as a give-up so existing
    accounting — e.g. the load driver's abandoned column — is unchanged). *)
val abandoned : t -> int

val acked : t -> int

val dup_acks : t -> int

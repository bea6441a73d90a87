type config = {
  timeout_ns : int;
  max_retries : int;
  backoff : float;
  jitter : float;
  reap_period_ns : int;
}

let default_config =
  { timeout_ns = 100_000; max_retries = 4; backoff = 2.0; jitter = 0.1; reap_period_ns = 250_000 }

(* Per-request state lives in an id-indexed slot ring ([Sim.Id_ring]).
   A slot is occupied while its request is outstanding: resolving the
   request cancels its queued timer and frees the slot at once, so the
   ring spans the outstanding requests. Each slot's timer continuation is
   built once with the slot. *)
type slot = {
  mutable busy : bool; (* holds an outstanding request *)
  mutable id : int;
  mutable send : unit -> unit;
  mutable give_up : unit -> unit;
  mutable deadline : int; (* absolute engine time; [max_int] for none *)
  mutable attempts : int; (* sends so far, including the first *)
  mutable at_deadline : bool; (* the queued timer is the deadline abandon *)
  mutable timer : int; (* the queued timer's [Sim.Engine] handle *)
  fire : unit -> unit; (* the timer continuation, built with the slot *)
}

and t = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  config : config;
  slots : (t, slot) Sim.Id_ring.t;
  mutable outstanding : int;
  mutable reaper : (unit -> unit) option;
  mutable reaper_armed : bool;
  mutable reap_k : unit -> unit;
  mutable tracked : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable give_ups : int;
  mutable abandoned : int;
  mutable acked : int;
  mutable dup_acks : int;
}

let check_config c =
  if c.timeout_ns <= 0 then invalid_arg "Reliab: timeout_ns must be positive";
  if c.max_retries < 0 then invalid_arg "Reliab: max_retries must be >= 0";
  if c.backoff < 1.0 then invalid_arg "Reliab: backoff must be >= 1";
  if not (c.jitter >= 0.0 && c.jitter <= 1.0) then invalid_arg "Reliab: jitter outside [0,1]";
  if c.reap_period_ns <= 0 then invalid_arg "Reliab: reap_period_ns must be positive"

let outstanding t = t.outstanding

(* The reaper self-reschedules only while requests are outstanding, so an
   idle layer never keeps the engine's event loop alive. *)
let arm_reaper t =
  if (not t.reaper_armed) && t.reaper <> None && outstanding t > 0 then begin
    t.reaper_armed <- true;
    Sim.Engine.schedule t.engine ~after:t.config.reap_period_ns t.reap_k
  end

let reap t =
  t.reaper_armed <- false;
  (match t.reaper with Some f -> f () | None -> ());
  arm_reaper t

let set_reaper t f =
  t.reaper <- Some f;
  arm_reaper t

let timeout_for t s =
  let base = float_of_int t.config.timeout_ns *. (t.config.backoff ** float_of_int (s.attempts - 1)) in
  let jitter = 1.0 +. (t.config.jitter *. ((2.0 *. Sim.Rng.float t.rng) -. 1.0)) in
  max 1 (int_of_float (base *. jitter))

let noop () = ()

(* The request is done: its timer, if still queued, is cancelled and the
   slot is free for the next request. *)
let resolve t s =
  Sim.Engine.cancel t.engine s.timer;
  t.outstanding <- t.outstanding - 1;
  s.busy <- false;
  s.send <- noop;
  s.give_up <- noop

let give_up_on t s =
  let give_up = s.give_up in
  resolve t s;
  t.give_ups <- t.give_ups + 1;
  give_up ()

(* Abandon at the deadline: the request resolves exactly when its budget
   expires, not one retransmission timeout later. *)
let abandon t s =
  t.abandoned <- t.abandoned + 1;
  give_up_on t s

let arm t s =
  let timeout = timeout_for t s in
  let now = Sim.Engine.now t.engine in
  (* A per-request deadline clamps the retry budget: a retransmission
     whose timer would fire at or past the deadline is never scheduled —
     the request instead reports [Abandoned] deterministically at the
     deadline itself. *)
  if now + timeout >= s.deadline then begin
    s.at_deadline <- true;
    s.timer <- Sim.Engine.timer t.engine ~after:(max 1 (s.deadline - now)) s.fire
  end
  else begin
    s.at_deadline <- false;
    s.timer <- Sim.Engine.timer t.engine ~after:timeout s.fire
  end

let expire t s =
  t.timeouts <- t.timeouts + 1;
  if s.attempts > t.config.max_retries then give_up_on t s
  else begin
    t.retries <- t.retries + 1;
    s.attempts <- s.attempts + 1;
    s.send ();
    arm t s
  end

(* The slot's timer event: it fires only while the request is
   outstanding, since resolving it cancels the timer. *)
let fired t s = if s.at_deadline then abandon t s else expire t s

let new_slot t =
  let rec s =
    {
      busy = false;
      id = 0;
      send = noop;
      give_up = noop;
      deadline = max_int;
      attempts = 0;
      at_deadline = false;
      timer = 0;
      fire = (fun () -> fired t s);
    }
  in
  s

let create ?(config = default_config) engine ~rng =
  check_config config;
  let t =
    {
      engine;
      rng;
      config;
      slots =
        Sim.Id_ring.create ~make:new_slot
          ~occupied:(fun s -> s.busy)
          ~id_of:(fun s -> s.id);
      outstanding = 0;
      reaper = None;
      reaper_armed = false;
      reap_k = noop;
      tracked = 0;
      retries = 0;
      timeouts = 0;
      give_ups = 0;
      abandoned = 0;
      acked = 0;
      dup_acks = 0;
    }
  in
  t.reap_k <- (fun () -> reap t);
  t

let track ?deadline_ns t ~id ~send ~give_up =
  if Sim.Id_ring.mem t.slots ~id then
    invalid_arg (Printf.sprintf "Reliab.track: id %d already tracked" id);
  (match deadline_ns with
  | Some d when d <= 0 -> invalid_arg "Reliab.track: deadline_ns must be positive"
  | _ -> ());
  let s = Sim.Id_ring.claim t.slots t ~id in
  s.busy <- true;
  s.id <- id;
  s.send <- send;
  s.give_up <- give_up;
  s.deadline <-
    (match deadline_ns with
    | Some d -> Sim.Engine.now t.engine + d
    | None -> max_int);
  s.attempts <- 1;
  t.outstanding <- t.outstanding + 1;
  t.tracked <- t.tracked + 1;
  send ();
  arm t s;
  arm_reaper t
[@@alloc_free]

let ack t ~id =
  if Sim.Id_ring.mem t.slots ~id then begin
    resolve t (Sim.Id_ring.get t.slots ~id);
    t.acked <- t.acked + 1;
    `Acked
  end
  else begin
    t.dup_acks <- t.dup_acks + 1;
    `Duplicate
  end
[@@alloc_free]

let tracked t = t.tracked

let retries t = t.retries

let timeouts t = t.timeouts

let give_ups t = t.give_ups

let abandoned t = t.abandoned

let acked t = t.acked

let dup_acks t = t.dup_acks

(* Events due within [horizon] ns of now go in [near], later ones in [far],
   so the heap the event loop sifts on nearly every event stays small. A
   pop takes whichever root is smaller by [(time, seq)], so events fire in
   exactly the order one heap would give.

   The split, measured as [schedule] delays over the four bench/e2e
   workloads at seed 1: on kv-get-udp, 3.78M of 5.23M calls are under
   1 us, 192k are 1-10 us, 6 are 10-50 us and 87k are 1 ms or longer; the
   other workloads have at most 1,242 events (repl-put50-udp) in 10-50 us.
   Timers start at 90 us: the [Net.Reliab] retransmit (100 us +/- 10%),
   the 250 us reaper and the TCP RTOs. Any horizon in about 10-90 us thus
   splits the traffic the same way: the per-request retransmit timers,
   which fire long after their ack, leave the near heap to the few
   in-flight events. *)
let horizon = 32_000

type t = {
  mutable now : int;
  mutable seq : int;
  near : (unit -> unit) Heap.t; (* due before [now + horizon] when scheduled *)
  far : (unit -> unit) Heap.t;
  fire : int -> (unit -> unit) -> unit; (* built once, in [create] *)
  mutable quiesce_hooks : (unit -> unit) list; (* run when the queue drains *)
}

let idle () = ()

let create () =
  let rec t =
    {
      now = 0;
      seq = 0;
      near = Heap.create ~dummy:idle;
      far = Heap.create ~dummy:idle;
      fire =
        (fun time f ->
          t.now <- time;
          f ());
      quiesce_hooks = [];
    }
  in
  t

let now t = t.now

let schedule_at t ~time f =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is before now %d" time t.now);
  t.seq <- t.seq + 1;
  Heap.push
    (if time - t.now >= horizon then t.far else t.near)
    ~time ~seq:t.seq f
[@@alloc_free]

let schedule t ~after f =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.now + after) f

(* The heap holding the next event: the one whose root is smaller by
   [(time, seq)], or [near] when both are empty. *)
let next t =
  let near = t.near and far = t.far in
  if Heap.is_empty far then near
  else if Heap.is_empty near then far
  else
    let tn = Heap.min_time near and tf = Heap.min_time far in
    if tn < tf || (tn = tf && Heap.min_seq near < Heap.min_seq far) then near
    else far

let rec fire_until t until =
  let h = next t in
  if (not (Heap.is_empty h)) && Heap.min_time h <= until then begin
    ignore (Heap.pop_into h t.fire);
    fire_until t until
  end

let run t ~until =
  fire_until t until;
  if t.now < until then t.now <- until

let run_all t =
  while Heap.pop_into (next t) t.fire do
    ()
  done

let pending t = Heap.length t.near + Heap.length t.far

let add_quiesce_hook t f = t.quiesce_hooks <- t.quiesce_hooks @ [ f ]

let quiesce t =
  run_all t;
  List.iter (fun f -> f ()) t.quiesce_hooks

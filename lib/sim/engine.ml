(* One heap of events keyed by [(time, seq)]. A timer's handle packs the
   event's payload slot into the low [slot_bits] and its [seq] above them
   (2^38 events before a handle would overflow): [seq] is unique, so a
   handle whose event already fired or was cancelled never matches the
   slot's next occupant. *)
let slot_bits = 24

let slot_mask = (1 lsl slot_bits) - 1

type t = {
  mutable now : int;
  mutable seq : int;
  queue : (unit -> unit) Heap.t;
  fire : int -> (unit -> unit) -> unit; (* built once, in [create] *)
  mutable quiesce_hooks : (unit -> unit) list; (* run when the queue drains *)
}

let idle () = ()

let create () =
  let rec t =
    {
      now = 0;
      seq = 0;
      queue = Heap.create ~dummy:idle;
      fire =
        (fun time f ->
          t.now <- time;
          f ());
      quiesce_hooks = [];
    }
  in
  t

let now t = t.now

(* Queue [f] at [time] and return its payload slot. *)
let push t ~time f =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is before now %d" time t.now);
  t.seq <- t.seq + 1;
  Heap.push t.queue ~time ~seq:t.seq f
[@@alloc_free]

let schedule_at t ~time f = ignore (push t ~time f)
[@@alloc_free]

let schedule t ~after f =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.now + after) f

let timer t ~after f =
  if after < 0 then invalid_arg "Engine.timer: negative delay";
  let slot = push t ~time:(t.now + after) f in
  if slot > slot_mask then failwith "Engine.timer: too many queued events";
  (t.seq lsl slot_bits) lor slot
[@@alloc_free]

let cancel t handle =
  ignore
    (Heap.remove t.queue ~slot:(handle land slot_mask)
       ~seq:(handle lsr slot_bits))
[@@alloc_free]

let rec fire_until t until =
  if (not (Heap.is_empty t.queue)) && Heap.min_time t.queue <= until then begin
    ignore (Heap.pop_into t.queue t.fire);
    fire_until t until
  end

let run t ~until =
  fire_until t until;
  if t.now < until then t.now <- until

let run_all t = fire_until t max_int

let pending t = Heap.length t.queue

let add_quiesce_hook t f = t.quiesce_hooks <- t.quiesce_hooks @ [ f ]

let quiesce t =
  run_all t;
  List.iter (fun f -> f ()) t.quiesce_hooks

type t = {
  mutable now : int;
  mutable seq : int;
  heap : (unit -> unit) Heap.t;
  fire : int -> (unit -> unit) -> unit; (* built once, in [create] *)
  mutable quiesce_hooks : (unit -> unit) list; (* run when the queue drains *)
}

let idle () = ()

let create () =
  let rec t =
    {
      now = 0;
      seq = 0;
      heap = Heap.create ~dummy:idle;
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
  Heap.push t.heap ~time ~seq:t.seq f
[@@alloc_free]

let schedule t ~after f =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.now + after) f

let run t ~until =
  while (not (Heap.is_empty t.heap)) && Heap.min_time t.heap <= until do
    ignore (Heap.pop_into t.heap t.fire)
  done;
  if t.now < until then t.now <- until

let run_all t =
  while Heap.pop_into t.heap t.fire do
    ()
  done

let pending t = Heap.length t.heap

let add_quiesce_hook t f = t.quiesce_hooks <- t.quiesce_hooks @ [ f ]

let quiesce t =
  run_all t;
  List.iter (fun f -> f ()) t.quiesce_hooks

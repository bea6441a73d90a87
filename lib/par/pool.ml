(* Work-stealing domain pool.

   Structure: [nworkers] persistent domains, each owning an index queue;
   a batch scatters task indices round-robin across the queues and workers
   steal from their neighbours once their own queue drains, so an uneven
   batch (figure configs vary 100x in cost) still finishes at the speed of
   the slowest *task*, not the slowest *queue*. Workers park on a
   condition variable between batches; the submitting domain never
   executes tasks itself (its domain-local state — RefSan ledger, send
   scratch — stays exactly as serial execution would leave it) and parks
   on [done_cond] until the batch drains.

   Determinism contract: tasks write results into a slot chosen by their
   submission index, and the merge reads slots in index order. Scheduling
   (which worker ran what, in which order) is invisible in the output.

   Nesting: a task that itself calls [map]/[map_list] runs the inner batch
   inline on its worker (the [in_worker] flag below) — the pool never
   deadlocks waiting on itself, and inner work inherits the outer job's
   domain-local state, which is exactly the serial semantics. *)

let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

type t = {
  nworkers : int;
  queues : (unit -> unit) Queue.t array;
  qlocks : Mutex.t array;
  m : Mutex.t;
  work_cond : Condition.t;
  done_cond : Condition.t;
  mutable epoch : int; (* bumped per batch; parks are epoch-checked *)
  mutable remaining : int;
  mutable stop : bool;
  mutable exn : (exn * Printexc.raw_backtrace) option;
  mutable domains : unit Domain.t array;
}

let size t = t.nworkers

(* Pop from queue [j]; never blocks. *)
let try_pop t j =
  let l = t.qlocks.(j) in
  Mutex.lock l;
  let task =
    let q = t.queues.(j) in
    if Queue.is_empty q then None else Some (Queue.pop q)
  in
  Mutex.unlock l;
  task

(* Own queue first, then steal round-robin from the neighbours. *)
let find_task t i =
  let rec go k =
    if k = t.nworkers then None
    else
      match try_pop t ((i + k) mod t.nworkers) with
      | Some task -> Some task
      | None -> go (k + 1)
  in
  go 0

let worker t i () =
  Domain.DLS.set in_worker true;
  let seen = ref (-1) in
  let rec loop () =
    match find_task t i with
    | Some task ->
        task ();
        Mutex.lock t.m;
        t.remaining <- t.remaining - 1;
        if t.remaining = 0 then Condition.broadcast t.done_cond;
        Mutex.unlock t.m;
        loop ()
    | None ->
        Mutex.lock t.m;
        if t.stop then Mutex.unlock t.m
        else if t.epoch <> !seen then begin
          (* A batch may have landed between our scan and taking the
             lock; re-scan before parking so the wakeup is never missed. *)
          seen := t.epoch;
          Mutex.unlock t.m;
          loop ()
        end
        else begin
          Condition.wait t.work_cond t.m;
          Mutex.unlock t.m;
          loop ()
        end
  in
  loop ()

let create ~workers =
  if workers < 1 then invalid_arg "Par.Pool.create: workers < 1";
  let t =
    {
      nworkers = workers;
      queues = Array.init workers (fun _ -> Queue.create ());
      qlocks = Array.init workers (fun _ -> Mutex.create ());
      m = Mutex.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      epoch = 0;
      remaining = 0;
      stop = false;
      exn = None;
      domains = [||];
    }
  in
  t.domains <- Array.init workers (fun i -> Domain.spawn (worker t i));
  t

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.work_cond;
  Mutex.unlock t.m;
  Array.iter Domain.join t.domains;
  t.domains <- [||]

(* Run every task and wait for the batch to drain; the first task
   exception (if any) is re-raised here on the submitting domain. *)
let run_batch t (tasks : (unit -> unit) array) =
  let n = Array.length tasks in
  if n > 0 then begin
    Array.iteri
      (fun k task ->
        let j = k mod t.nworkers in
        Mutex.lock t.qlocks.(j);
        Queue.push task t.queues.(j);
        Mutex.unlock t.qlocks.(j))
      tasks;
    Mutex.lock t.m;
    t.remaining <- t.remaining + n;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work_cond;
    while t.remaining > 0 do
      Condition.wait t.done_cond t.m
    done;
    let exn = t.exn in
    t.exn <- None;
    Mutex.unlock t.m;
    match exn with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(* --- Cached pool + default width --------------------------------------- *)

let recommended_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let default = Atomic.make 1

let set_default_jobs n =
  if n < 1 then invalid_arg "Par.Pool.set_default_jobs: jobs < 1";
  Atomic.set default n

let default_jobs () = Atomic.get default

(* One process-wide pool, resized on demand; torn down at exit so the
   worker domains never outlive the run. *)
let cached : t option ref = ref None

let cached_lock = Mutex.create ()

let the_pool ~workers =
  Mutex.lock cached_lock;
  let t =
    match !cached with
    | Some t when t.nworkers = workers -> t
    | existing ->
        Option.iter shutdown existing;
        let t = create ~workers in
        cached := Some t;
        t
  in
  Mutex.unlock cached_lock;
  t

let () =
  at_exit (fun () ->
      match !cached with
      | Some t ->
          cached := None;
          shutdown t
      | None -> ())

(* --- Deterministic map -------------------------------------------------- *)

let serial_map f arr = Array.map f arr

let map ?jobs f arr =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let n = Array.length arr in
  if jobs <= 1 || n <= 1 || Domain.DLS.get in_worker then serial_map f arr
  else begin
    let results = Array.make n None in
    let pool = the_pool ~workers:(min jobs n) in
    let task k () =
      (match f arr.(k) with
      | y -> results.(k) <- Some y
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock pool.m;
          if pool.exn = None then pool.exn <- Some (e, bt);
          Mutex.unlock pool.m);
      (* Fold this job's domain-local RefSan ledger into the process
         totals before the next (unrelated) job reuses the domain, so the
         end-of-run grand total covers every worker's findings. *)
      if Sanitizer.Refsan.is_enabled () then Sanitizer.Refsan.checkpoint ()
    in
    run_batch pool (Array.init n task);
    Array.map
      (function
        | Some y -> y
        | None -> failwith "Par.Pool.map: missing result")
      results
  end

let map_list ?jobs f xs = Array.to_list (map ?jobs f (Array.of_list xs))

let run_jobs ?jobs (js : 'a Job.t list) = map_list ?jobs Job.run js

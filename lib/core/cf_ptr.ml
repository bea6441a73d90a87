(* Copies refused by an exhausted arena fall back to zero-copy when the
   bytes are DMA-safe — the inverse of the usual demotion, trading a
   pinned reference for not failing the request. Counted so faulted runs
   can report how often the allocator forced the trade. Domain-local so a
   parallel-harness job's snapshot deltas cover only its own sends. *)
let oom_fallbacks_dls : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

let oom_fallbacks_ctr () = Domain.DLS.get oom_fallbacks_dls

let oom_fallbacks () = !(oom_fallbacks_ctr ())

let reset_counters () = oom_fallbacks_ctr () := 0

let copy ?cpu ep view =
  Wire.Payload.Copied (Mem.Arena.copy_in ?cpu (Net.Endpoint.arena ep) view)

(* The referenced pinned handle under [view]; raises [Mem.Pinned.Unpinned]
   when the bytes are not DMA-safe. *)
let recover ?cpu ep (view : Mem.View.t) =
  Mem.Registry.recover_exn ?cpu
    (Net.Endpoint.registry ep)
    ~addr:view.Mem.View.addr ~len:view.Mem.View.len

(* The two arms of the hybrid heuristic, exposed separately so codegen can
   bind a field with a provable size bound ([max_size]/[min_size] vs the
   crossover) directly to its arm — no size test at all on that path. Both
   keep [make]'s resilience behaviour and take the config for a uniform
   call shape in generated setters. *)

let zc_folded ?cpu (_config : Config.t) ep (view : Mem.View.t) =
  match recover ?cpu ep view with
  | buf -> Wire.Payload.Zero_copy buf
  | exception Mem.Pinned.Unpinned -> copy ?cpu ep view

let copy_folded ?cpu (_config : Config.t) ep (view : Mem.View.t) =
  match copy ?cpu ep view with
  | p -> p
  | exception (Mem.Pinned.Out_of_memory _ as oom) -> (
      match recover ?cpu ep view with
      | buf ->
          incr (oom_fallbacks_ctr ());
          Wire.Payload.Zero_copy buf
      | exception Mem.Pinned.Unpinned -> raise oom)

(* Unbounded fields dispatch through the arena's size-class verdict table
   instead of a per-field compare. The table depends only on the threshold;
   one domain-local slot caches it (configs in a run share one threshold,
   and the parallel harness gives each domain its own slot — no shared
   mutable global). *)
let verdict_dls : Mem.Arena.Verdict.t ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      ref (Mem.Arena.Verdict.make ~threshold:Config.default.zero_copy_threshold))

let verdict_for threshold =
  let cache = Domain.DLS.get verdict_dls in
  let v = !cache in
  if Mem.Arena.Verdict.threshold v = threshold then v
  else begin
    let v = Mem.Arena.Verdict.make ~threshold in
    cache := v;
    v
  end

let make ?cpu (config : Config.t) ep (view : Mem.View.t) =
  let v = verdict_for config.zero_copy_threshold in
  if Mem.Arena.Verdict.zc v view.Mem.View.len then zc_folded ?cpu config ep view
  else copy_folded ?cpu config ep view

let of_buf ?cpu (config : Config.t) ep buf =
  let v = verdict_for config.zero_copy_threshold in
  if Mem.Arena.Verdict.zc v (Mem.Pinned.Buf.len buf) then
    Wire.Payload.Zero_copy buf
  else
    match copy ?cpu ep (Mem.Pinned.Buf.view buf) with
    | p ->
        Mem.Pinned.Buf.decr_ref ?cpu buf;
        p
    | exception Mem.Pinned.Out_of_memory _ ->
        (* Already-referenced pinned bytes: keep the reference and ship
           zero-copy instead of failing. *)
        incr (oom_fallbacks_ctr ());
        Wire.Payload.Zero_copy buf

(* Copies refused by an exhausted arena fall back to zero-copy when the
   bytes are DMA-safe — the inverse of the usual demotion, trading a
   pinned reference for not failing the request. Counted so faulted runs
   can report how often the allocator forced the trade. Domain-local so a
   parallel-harness job's snapshot deltas cover only its own sends. *)
let oom_fallbacks_dls : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

let oom_fallbacks_ctr () = Domain.DLS.get oom_fallbacks_dls

let oom_fallbacks () = !(oom_fallbacks_ctr ())

let copy ~cpu ?site ep view =
  Wire.Payload.Copied
    (Mem.Arena.copy_in ~cpu ?site (Net.Endpoint.arena ep) view)

(* The referenced pinned handle under [view]; raises [Mem.Pinned.Unpinned]
   when the bytes are not DMA-safe. *)
let recover ~cpu ep (view : Mem.View.t) =
  Mem.Registry.recover_exn ~cpu
    (Net.Endpoint.registry ep)
    ~addr:view.Mem.View.addr ~len:view.Mem.View.len

(* The two arms of the hybrid heuristic. Both keep the resilience
   behaviour: bytes that are not DMA-safe are copied, and a copy the arena
   refuses falls back to zero-copy when the bytes are pinned. *)

let zc_arm ~cpu ep view =
  match recover ~cpu ep view with
  | buf -> Wire.Payload.Zero_copy buf
  | exception Mem.Pinned.Unpinned -> copy ~cpu ep view

let copy_arm ~cpu ep view =
  match copy ~cpu ep view with
  | p -> p
  | exception (Mem.Pinned.Out_of_memory _ as oom) -> (
      match recover ~cpu ep view with
      | buf ->
          incr (oom_fallbacks_ctr ());
          Wire.Payload.Zero_copy buf
      | exception Mem.Pinned.Unpinned -> raise oom)

(* The one copy/zero-copy decision in the stack: [len >= threshold], made
   once per field when the payload is built. Callers with a fixed policy
   pass their config's threshold ([make]); [Adaptive] passes the threshold
   it is learning. *)
let make_at ~cpu ~threshold ep (view : Mem.View.t) =
  if view.Mem.View.len >= threshold then zc_arm ~cpu ep view
  else copy_arm ~cpu ep view

let make ~cpu (config : Config.t) ep view =
  make_at ~cpu ~threshold:config.zero_copy_threshold ep view

(* Codegen binds a field whose schema bounds prove the decision
   ([max_size]/[min_size] vs the crossover) straight to its arm; the config
   is taken only for a uniform call shape in generated setters. *)

let zc_folded ~cpu (_config : Config.t) ep view = zc_arm ~cpu ep view

let copy_folded ~cpu (_config : Config.t) ep view = copy_arm ~cpu ep view

let of_buf ~cpu ?site ~threshold ep (p : Wire.Payload.t) =
  match p with
  | Wire.Payload.Zero_copy buf when Mem.Pinned.Buf.len buf < threshold -> (
      match copy ~cpu ?site ep (Mem.Pinned.Buf.view buf) with
      | copied ->
          Mem.Pinned.Buf.decr_ref ~cpu ?site buf;
          copied
      | exception Mem.Pinned.Out_of_memory _ ->
          (* Already-referenced pinned bytes: keep the reference and ship
             zero-copy instead of failing. *)
          incr (oom_fallbacks_ctr ());
          p)
  | _ -> p

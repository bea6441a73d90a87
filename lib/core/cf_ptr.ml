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

(* The one copy/zero-copy decision, [len >= threshold] at the policy
   cell's threshold, once per input form. Only a learning cell reads the
   meter, so a fixed one boxes no [c0] where [learn] is not inlined. *)
let make ~cpu (config : Config.t) ep (view : Mem.View.t) =
  let cell = config.zero_copy in
  let learns = Adaptive.learns cell in
  let c0 = if learns then Memmodel.Cpu.cycles cpu else 0.0 in
  let p =
    if view.Mem.View.len >= Adaptive.threshold cell then zc_arm ~cpu ep view
    else copy_arm ~cpu ep view
  in
  if learns then Adaptive.learn cell ~cpu ~c0 ~len:view.Mem.View.len p;
  p

(* [make] over a pinned buffer the caller holds (a stored value): the same
   decision, charges and references as [make] of its view, with no view
   built and the held handle itself referenced instead of a recovered
   copy of it. *)

let copy_buf ~cpu ep buf =
  Wire.Payload.Copied (Mem.Arena.copy_in_buf ~cpu (Net.Endpoint.arena ep) buf)

let recover_buf ~cpu ep buf =
  Mem.Registry.recover_held_exn ~cpu (Net.Endpoint.registry ep) buf

let make_buf ~cpu (config : Config.t) ep buf =
  let cell = config.zero_copy in
  let len = Mem.Pinned.Buf.len buf in
  let learns = Adaptive.learns cell in
  let c0 = if learns then Memmodel.Cpu.cycles cpu else 0.0 in
  let p =
    if len >= Adaptive.threshold cell then
      match recover_buf ~cpu ep buf with
      | held -> Wire.Payload.Zero_copy held
      | exception Mem.Pinned.Unpinned -> copy_buf ~cpu ep buf
    else
      match copy_buf ~cpu ep buf with
      | p -> p
      | exception (Mem.Pinned.Out_of_memory _ as oom) -> (
          match recover_buf ~cpu ep buf with
          | held ->
              incr (oom_fallbacks_ctr ());
              Wire.Payload.Zero_copy held
          | exception Mem.Pinned.Unpinned -> raise oom)
  in
  if learns then Adaptive.learn cell ~cpu ~c0 ~len p;
  p

let of_buf ~cpu ?site cell ep (p : Wire.Payload.t) =
  match p with
  | Wire.Payload.Zero_copy buf ->
      let len = Mem.Pinned.Buf.len buf in
      let learns = Adaptive.learns cell in
      let c0 = if learns then Memmodel.Cpu.cycles cpu else 0.0 in
      let q =
        if len >= Adaptive.threshold cell then p
        else
          match Mem.Arena.copy_in_buf ~cpu ?site (Net.Endpoint.arena ep) buf with
          | copied ->
              Mem.Pinned.Buf.decr_ref ~cpu ?site buf;
              Wire.Payload.Copied copied
          | exception Mem.Pinned.Out_of_memory _ ->
              (* Already-referenced pinned bytes: keep the reference and
                 ship zero-copy instead of failing. *)
              incr (oom_fallbacks_ctr ());
              p
      in
      if learns then Adaptive.learn cell ~cpu ~c0 ~len q;
      q
  | Wire.Payload.Copied _ | Wire.Payload.Literal _ -> p

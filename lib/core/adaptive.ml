(* The EWMAs live in an all-float record, stored flat: updating them
   boxes nothing, so a learning step allocates no words. *)
type estimates = {
  alpha : float;
  mutable copy_per_byte : float; (* cycles per byte, EWMA *)
  mutable zc_fixed : float; (* cycles per zero-copy construction, EWMA *)
}

type t = {
  est : estimates;
  mutable threshold : int;
  mutable observations : int;
}

let clamp v = if v < 64 then 64 else if v > 8192 then 8192 else v

let create ?(initial = 512) ?(alpha = 0.05) () =
  (* Seed the estimates so the ratio starts at [initial]. *)
  {
    est = { alpha; copy_per_byte = 1.0; zc_fixed = float_of_int initial };
    threshold = clamp initial;
    observations = 0;
  }

let threshold t = t.threshold

let estimates t = (t.est.copy_per_byte, t.est.zc_fixed)

let observations t = t.observations

let[@inline] ewma e old v = ((1.0 -. e.alpha) *. old) +. (e.alpha *. v)

let refresh t =
  let e = t.est in
  if e.copy_per_byte > 0.0 then
    t.threshold <- clamp (int_of_float (e.zc_fixed /. e.copy_per_byte))

(* The observation hooks: the EWMA/refresh step behind every learned
   construction. Tests and replayed traces call them with a cost they
   supply. *)

let[@inline] observe_copy t ~bytes ~cycles =
  if bytes > 0 then begin
    let e = t.est in
    t.observations <- t.observations + 1;
    e.copy_per_byte <- ewma e e.copy_per_byte (cycles /. float_of_int bytes);
    refresh t
  end

let[@inline] observe_zc t ~cycles =
  let e = t.est in
  t.observations <- t.observations + 1;
  e.zc_fixed <- ewma e e.zc_fixed cycles;
  refresh t

(* One learning step for a construction of [len] bytes that started at
   cycle [c0]: a zero-copy payload adds the completion-side release the
   construction does not see; a copy is cost per byte. An unmetered
   construction costs nothing visible: nothing to learn. Inlined so [c0]
   stays an unboxed float. *)
let[@inline] learn t ~cpu ~c0 ~len (payload : Wire.Payload.t) =
  if Memmodel.Cpu.metered cpu then begin
    let cost = Memmodel.Cpu.cycles cpu -. c0 in
    match payload with
    | Wire.Payload.Zero_copy _ ->
        let p = Memmodel.Cpu.params cpu in
        observe_zc t ~cycles:(cost +. p.Memmodel.Params.cost_completion_per_sge)
    | Wire.Payload.Copied _ | Wire.Payload.Literal _ ->
        observe_copy t ~bytes:len ~cycles:cost
  end

let make ~cpu t ep (view : Mem.View.t) =
  let c0 = Memmodel.Cpu.cycles cpu in
  let payload = Cf_ptr.make_at ~cpu ~threshold:t.threshold ep view in
  learn t ~cpu ~c0 ~len:view.Mem.View.len payload;
  payload

let of_buf ~cpu ?site t ep (p : Wire.Payload.t) =
  match p with
  | Wire.Payload.Zero_copy buf ->
      let c0 = Memmodel.Cpu.cycles cpu in
      let payload = Cf_ptr.of_buf ~cpu ?site ~threshold:t.threshold ep p in
      learn t ~cpu ~c0 ~len:(Mem.Pinned.Buf.len buf) payload;
      payload
  | Wire.Payload.Copied _ | Wire.Payload.Literal _ -> p

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

(* An EWMA of weight 0 never moves, so a weight-0 cell is the fixed one
   and nothing about it is written. Not clamped: 0 and [max_int] are the
   all-zero-copy and all-copy policies. *)
let fixed n = { (create ~initial:n ~alpha:0.0 ()) with threshold = n }

let[@inline] learns t = t.est.alpha > 0.0

let threshold t = t.threshold

let estimates t = (t.est.copy_per_byte, t.est.zc_fixed)

let observations t = t.observations

let[@inline] ewma e old v = ((1.0 -. e.alpha) *. old) +. (e.alpha *. v)

let refresh t =
  let e = t.est in
  if e.copy_per_byte > 0.0 then
    t.threshold <- clamp (int_of_float (e.zc_fixed /. e.copy_per_byte))

(* The EWMA/refresh step behind every learned construction. A fixed cell
   is never written: [Config]'s shared cells are read by parallel
   harness domains. *)

let[@inline] observe_copy t ~bytes ~cycles =
  if learns t && bytes > 0 then begin
    let e = t.est in
    t.observations <- t.observations + 1;
    e.copy_per_byte <- ewma e e.copy_per_byte (cycles /. float_of_int bytes);
    refresh t
  end

let[@inline] observe_zc t ~cycles =
  if learns t then begin
    let e = t.est in
    t.observations <- t.observations + 1;
    e.zc_fixed <- ewma e e.zc_fixed cycles;
    refresh t
  end

(* One learning step for a construction of [len] bytes that started at
   cycle [c0]: a zero-copy payload adds the completion-side release the
   construction does not see; a copy is cost per byte. An unmetered
   construction costs nothing visible: nothing to learn. Inlined so [c0]
   stays an unboxed float. *)
let[@inline] learn t ~cpu ~c0 ~len (payload : Wire.Payload.t) =
  if learns t && Memmodel.Cpu.metered cpu then begin
    let cost = Memmodel.Cpu.cycles cpu -. c0 in
    match payload with
    | Wire.Payload.Zero_copy _ ->
        let p = Memmodel.Cpu.params cpu in
        observe_zc t ~cycles:(cost +. p.Memmodel.Params.cost_completion_per_sge)
    | Wire.Payload.Copied _ | Wire.Payload.Literal _ ->
        observe_copy t ~bytes:len ~cycles:cost
  end

type t = {
  alpha : float;
  mutable copy_per_byte : float; (* cycles per byte, EWMA *)
  mutable zc_fixed : float; (* cycles per zero-copy construction, EWMA *)
  mutable threshold : int;
  mutable observations : int;
}

let clamp v = if v < 64 then 64 else if v > 8192 then 8192 else v

let create ?(initial = 512) ?(alpha = 0.05) () =
  (* Seed the estimates so the ratio starts at [initial]. *)
  {
    alpha;
    copy_per_byte = 1.0;
    zc_fixed = float_of_int initial;
    threshold = clamp initial;
    observations = 0;
  }

let threshold t = t.threshold

let estimates t = (t.copy_per_byte, t.zc_fixed)

let observations t = t.observations

let ewma t old v = ((1.0 -. t.alpha) *. old) +. (t.alpha *. v)

let refresh t =
  if t.copy_per_byte > 0.0 then
    t.threshold <- clamp (int_of_float (t.zc_fixed /. t.copy_per_byte))

(* Synthetic-observation hooks: the same EWMA/refresh step [make] performs,
   minus the cycle meter — callers (tests, replayed traces) supply the
   measured cost directly. *)

let observe_copy t ~bytes ~cycles =
  if bytes > 0 then begin
    t.observations <- t.observations + 1;
    t.copy_per_byte <- ewma t t.copy_per_byte (cycles /. float_of_int bytes);
    refresh t
  end

let observe_zc t ~cycles =
  t.observations <- t.observations + 1;
  t.zc_fixed <- ewma t t.zc_fixed cycles;
  refresh t

let make ~cpu t ep (view : Mem.View.t) =
  let config = Config.with_threshold t.threshold in
  let c0 = Memmodel.Cpu.cycles cpu in
  let payload = Cf_ptr.make ~cpu config ep view in
  (* An unmetered construction costs nothing visible: nothing to learn. *)
  if Memmodel.Cpu.metered cpu then begin
    let cost = Memmodel.Cpu.cycles cpu -. c0 in
    t.observations <- t.observations + 1;
    (match payload with
    | Wire.Payload.Zero_copy _ ->
        (* Add the completion-side share the construction doesn't see. *)
        let p = Memmodel.Cpu.params cpu in
        t.zc_fixed <-
          ewma t t.zc_fixed (cost +. p.Memmodel.Params.cost_completion_per_sge)
    | Wire.Payload.Copied _ | Wire.Payload.Literal _ ->
        if view.Mem.View.len > 0 then
          t.copy_per_byte <-
            ewma t t.copy_per_byte (cost /. float_of_int view.Mem.View.len));
    refresh t
  end;
  payload

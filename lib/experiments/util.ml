type budget = {
  cap_ns : int;
  point_ns : int;
  warmup_ns : int;
  curve_fractions : float list;
  fault_point_ns : int;
  fault_loss_rates : float list;
}

let default_budget =
  {
    cap_ns = 12_000_000;
    point_ns = 15_000_000;
    warmup_ns = 4_000_000;
    curve_fractions = [ 0.2; 0.4; 0.6; 0.75; 0.85; 0.92; 0.98; 1.04 ];
    fault_point_ns = 10_000_000;
    fault_loss_rates = [ 0.0; 0.001; 0.01; 0.05; 0.1 ];
  }

let quick_budget =
  {
    cap_ns = 4_000_000;
    point_ns = 5_000_000;
    warmup_ns = 1_500_000;
    curve_fractions = [ 0.4; 0.75; 0.95 ];
    fault_point_ns = 2_500_000;
    fault_loss_rates = [ 0.0; 0.01; 0.1 ];
  }

(* Atomic: set once by the harness before any jobs run, read from every
   worker domain. *)
let current = Atomic.make default_budget

let budget () = Atomic.get current

let set_quick q = Atomic.set current (if q then quick_budget else default_budget)

(* Experiments that scale non-time knobs (connection-table width, shard
   counts) off the CI-vs-full distinction rather than durations alone. *)
let is_quick () = Atomic.get current = quick_budget

(* Parallel harness entry point: experiments hand their independent
   per-config jobs here and the pool width set from --jobs (see
   [Par.Pool.set_default_jobs]) decides how many run at once. Each job
   must build its own rig/engine/space; results come back in submission
   order, so rendered tables are byte-identical at any width.

   Sanitized runs stay serial: the per-rig quiesce hooks print leak
   reports as they drain, and interleaving those across domains would
   make --sanitize output (which CI greps) nondeterministic. Sanitize is
   a diagnostic mode; wall-clock is not its point. *)
let par_map f xs =
  if Sanitizer.Refsan.is_enabled () then List.map f xs
  else Par.Pool.map_list f xs

(* End of a per-configuration rig's life, as [Kv_bench.with_apps] ends its
   fresh rigs: collect the rig [f] built as soon as [f x] returns, rather
   than when the major GC next completes a cycle, so finished rigs do not
   pile up behind the next one and peak RSS does not move with the GC's
   phase. *)
let with_rig_life f x =
  let r = f x in
  Gc.full_major ();
  r

type driver = {
  send : Net.Transport.t -> dst:int -> id:int -> unit;
  parse_id : (Mem.Pinned.Buf.t -> int) option;
}

let capacity rig d =
  let b = budget () in
  Loadgen.Driver.closed_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
    ~server:Apps.Rig.server_id ~outstanding:4 ~duration_ns:b.cap_ns
    ~warmup_ns:b.warmup_ns ~rng:rig.Apps.Rig.rng ~send:d.send
    ~parse_id:d.parse_id

let curve rig d ~name ~capacity_rps =
  let b = budget () in
  let c = Stats.Curve.create ~name in
  List.iter
    (fun frac ->
      let rate = capacity_rps *. frac in
      let r =
        Loadgen.Driver.open_loop rig.Apps.Rig.engine
          ~clients:rig.Apps.Rig.clients ~server:Apps.Rig.server_id
          ~rate_rps:rate ~duration_ns:b.point_ns ~warmup_ns:b.warmup_ns
          ~rng:rig.Apps.Rig.rng ~send:d.send ~parse_id:d.parse_id
      in
      Stats.Curve.add c (Loadgen.Driver.to_point r))
    b.curve_fractions;
  c

let tput_at_slo c ~slo_ns =
  match Stats.Curve.throughput_at_slo c ~p99_slo_ns:slo_ns with
  | Some t -> t
  | None -> Stats.Curve.max_achieved c

let krps v = Printf.sprintf "%.1f" (v /. 1e3)

let gbps v = Printf.sprintf "%.2f" v

let pct_delta base v =
  if base <= 0.0 then "n/a"
  else Printf.sprintf "%+.1f%%" (100.0 *. (v -. base) /. base)

let print_curves ~title ~slo_ns curves =
  let t =
    Stats.Table.create ~title
      ~columns:[ "system"; "offered krps"; "achieved krps"; "p50 us"; "p99 us" ]
  in
  List.iter
    (fun c ->
      List.iter
        (fun (p : Stats.Curve.point) ->
          Stats.Table.add_row t
            [
              Stats.Curve.name c;
              krps p.Stats.Curve.offered;
              krps p.Stats.Curve.achieved;
              Printf.sprintf "%.1f" (float_of_int p.Stats.Curve.p50_ns /. 1e3);
              Printf.sprintf "%.1f" (float_of_int p.Stats.Curve.p99_ns /. 1e3);
            ])
        (Stats.Curve.points c))
    curves;
  Stats.Table.print t;
  let s =
    Stats.Table.create
      ~title:(Printf.sprintf "%s — summary @ p99 SLO %.0f us" title
                (float_of_int slo_ns /. 1e3))
      ~columns:[ "system"; "tput@SLO krps"; "max achieved krps" ]
  in
  List.iter
    (fun c ->
      Stats.Table.add_row s
        [
          Stats.Curve.name c;
          krps (tput_at_slo c ~slo_ns);
          krps (Stats.Curve.max_achieved c);
        ])
    curves;
  Stats.Table.print s

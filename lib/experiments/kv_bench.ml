let driver app =
  {
    Util.send = (fun ep ~dst ~id -> Apps.Kv_app.send_next app ep ~dst ~id);
    parse_id = Some (fun buf -> Apps.Kv_app.parse_id app buf);
  }

(* Measure each backend on a freshly populated rig: sharing one rig across
   systems lets the first system pay every cold miss and hands the later
   ones a warm cache — an order bias we must not have. *)
let with_apps ?rig ?transport ~workload backends f =
  let fresh = Option.is_none rig in
  let run backend =
    let rig =
      match rig with Some r -> r | None -> Apps.Rig.create ?transport ()
    in
    let app = Apps.Kv_app.install rig ~backend ~workload in
    let result = f backend.Apps.Backend.name rig app in
    if Sanitizer.Refsan.is_enabled () then begin
      (* Drain the event queue and run the RefSan quiesce hook (leak
         report), then fold this run's counts into the bench totals and
         drop the ledger so long multi-experiment runs stay bounded. *)
      Sim.Engine.quiesce rig.Apps.Rig.engine;
      Sanitizer.Refsan.checkpoint ()
    end;
    (* End of the rig's life: collect it now rather than whenever the
       major GC next completes a cycle. Left to the GC's pacing, finished
       rigs (pinned chunks, store, NIC state) pile up behind the next one,
       and the experiment's peak RSS moves with every change to how much
       the request path allocates. *)
    if fresh then Gc.full_major ();
    (backend.Apps.Backend.name, result)
  in
  match rig with
  | Some _ ->
      (* A shared rig means shared caches and a shared event queue: the
         measurement order is part of the experiment, so stay serial. *)
      List.map run backends
  | None -> Util.par_map run backends

let capacities ?rig ?transport ~workload backends =
  with_apps ?rig ?transport ~workload backends (fun _name rig app ->
      Util.capacity rig (driver app))

let curves ?rig ?transport ~workload backends =
  List.map snd
    (with_apps ?rig ?transport ~workload backends (fun name rig app ->
         let d = driver app in
         let cap = Util.capacity rig d in
         Util.curve rig d ~name ~capacity_rps:cap.Loadgen.Driver.achieved_rps))

(* Ablations beyond the paper's tables, for the design knobs DESIGN.md
   calls out: the threshold sweep, and the SGE-limit demotion fallback on
   the 8-entry Intel NIC. *)

let thresholds = [ 0; 128; 256; 512; 1024; 4096; max_int ]

let threshold_label t = if t = max_int then "inf (all copy)" else string_of_int t

let run_threshold_sweep () =
  let workload = Workload.Twitter.make () in
  let backends =
    List.map
      (fun threshold ->
        {
          (Apps.Backend.cornflakes
             ~config:(Cornflakes.Config.with_threshold threshold)
             ())
          with
          Apps.Backend.name = threshold_label threshold;
        })
      thresholds
  in
  let results = Kv_bench.capacities ~workload backends in
  let best =
    List.fold_left
      (fun acc (_, (r : Loadgen.Driver.result)) ->
        Float.max acc r.Loadgen.Driver.achieved_rps)
      0.0 results
  in
  let t =
    Stats.Table.create
      ~title:"Ablation: zero-copy threshold sweep on the Twitter trace"
      ~columns:[ "threshold B"; "krps"; "vs best" ]
  in
  List.iter
    (fun (name, (r : Loadgen.Driver.result)) ->
      Stats.Table.add_row t
        [
          name;
          Util.krps r.Loadgen.Driver.achieved_rps;
          Util.pct_delta best r.Loadgen.Driver.achieved_rps;
        ])
    results;
  Stats.Table.print t;
  print_endline
    "  (the empirical optimum should sit at or near the paper's 512 B)"

let run_sge_overflow () =
  (* 12 zero-copy-eligible fields per response: the e810 (8 SGEs) must
     demote four of them to copies; the CX-6 sends all twelve zero-copy. *)
  let workload = Workload.Ycsb.make ~n_keys:16384 ~entries:12 ~entry_size:600 () in
  let t =
    Stats.Table.create
      ~title:
        "Ablation: SGE-limit overflow — 12 x 600 B fields, hybrid Cornflakes"
      ~columns:[ "NIC"; "max SGE"; "krps"; "Gbps" ]
  in
  let rows =
    Util.par_map
      (fun nic_model ->
        let rig = Apps.Rig.create ~nic_model () in
        let app =
          Apps.Kv_app.install rig ~backend:(Apps.Backend.cornflakes ())
            ~workload
        in
        let r = Util.capacity rig (Kv_bench.driver app) in
        (nic_model, r))
      [ Nic.Model.mellanox_cx6; Nic.Model.intel_e810 ]
  in
  List.iter
    (fun ((nic_model : Nic.Model.t), (r : Loadgen.Driver.result)) ->
      Stats.Table.add_row t
        [
          nic_model.Nic.Model.name;
          string_of_int nic_model.Nic.Model.max_sge;
          Util.krps r.Loadgen.Driver.achieved_rps;
          Util.gbps r.Loadgen.Driver.achieved_gbps;
        ])
    rows;
  Stats.Table.print t;
  print_endline
    "  (demotion keeps the e810 correct at a modest throughput cost — the\n\
    \   double cache-miss case of paper section 3.2.1)"

(* The Cornflakes backend whose policy cell is [adaptive]: every payload
   it builds, view or held buffer, reads and trains that cell. *)
let adaptive_backend adaptive =
  {
    (Apps.Backend.cornflakes
       ~config:{ Cornflakes.Config.default with zero_copy = adaptive }
       ())
    with
    Apps.Backend.name = "adaptive";
  }

let run_adaptive_threshold () =
  (* Section-7 extension: the dynamic threshold should converge to (and
     perform like) the statically calibrated 512 B on the same workload. *)
  let workload = Workload.Twitter.make () in
  let adaptive = Cornflakes.Adaptive.create ~initial:2048 () in
  let results =
    Kv_bench.capacities ~workload
      [ Apps.Backend.cornflakes (); adaptive_backend adaptive ]
  in
  let t =
    Stats.Table.create
      ~title:"Ablation: adaptive threshold (section-7 extension) on Twitter"
      ~columns:[ "config"; "krps"; "threshold B" ]
  in
  List.iter
    (fun (name, (r : Loadgen.Driver.result)) ->
      Stats.Table.add_row t
        [
          name;
          Util.krps r.Loadgen.Driver.achieved_rps;
          (if name = "adaptive" then
             string_of_int (Cornflakes.Adaptive.threshold adaptive)
           else "512 (static)");
        ])
    results;
  Stats.Table.print t;
  Printf.printf
    "  (started at 2048 B; converged to %d B after %d constructions)\n"
    (Cornflakes.Adaptive.threshold adaptive)
    (Cornflakes.Adaptive.observations adaptive)

let run () =
  run_threshold_sweep ();
  run_sge_overflow ();
  run_adaptive_threshold ()

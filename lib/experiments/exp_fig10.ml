(* Figure 10: generality across NICs. A 1024-byte total payload split over
   1..6 scatter-gather entries (the e810 allows 8 gather entries, one of
   which carries the packet header), on Mellanox CX-6 and Intel e810: both
   NICs should show scatter-gather winning exactly while per-entry sizes are
   >= 512 B. *)

let totals = 1024

let entry_counts = [ 1; 2; 4 ] (* per-entry: 1024, 512, 256 *)

let l3 = Memmodel.Params.default.Memmodel.Params.l3.Memmodel.Params.size_bytes

let run_cell (nic_model, entries) =
  (fun entries ->
      let entry_size = totals / entries in
      let n_keys = min 262_144 (max 8_192 (5 * l3 / totals)) in
      let rig = Apps.Rig.create ~nic_model () in
      let workload = Workload.Ycsb.make ~n_keys ~entries ~entry_size () in
      let base =
        Apps.Kv_app.install rig
          ~backend:(Apps.Backend.cornflakes ~config:Cornflakes.Config.all_copy ())
          ~workload
      in
      let measure config =
        let app =
          Apps.Kv_app.switch_backend base (Apps.Backend.cornflakes ~config ())
        in
        (Util.capacity rig (Kv_bench.driver app)).Loadgen.Driver.achieved_rps
      in
      let sg = measure Cornflakes.Config.all_zero_copy in
      let copy = measure Cornflakes.Config.all_copy in
      (entries, sg, copy))
    entries

let run () =
  let t =
    Stats.Table.create
      ~title:
        "Figure 10: 1024 B payload over N entries — SG vs copy across NICs \
         (krps)"
      ~columns:
        [ "NIC"; "entries"; "bytes/entry"; "SG"; "copy"; "SG vs copy" ]
  in
  let nics = [ Nic.Model.mellanox_cx6; Nic.Model.intel_e810 ] in
  let cells =
    Util.par_map
      (fun (nic_model, entries) ->
        (nic_model.Nic.Model.name,
         Util.with_rig_life run_cell (nic_model, entries)))
      (List.concat_map
         (fun nic -> List.map (fun e -> (nic, e)) entry_counts)
         nics)
  in
  List.iter
    (fun (nic_name, (entries, sg, copy)) ->
      Stats.Table.add_row t
        [
          nic_name;
          string_of_int entries;
          string_of_int (totals / entries);
          Util.krps sg;
          Util.krps copy;
          Util.pct_delta copy sg;
        ])
    cells;
  Stats.Table.print t;
  print_endline
    "  (paper: on both NICs scatter-gather wins for 512 B-or-larger entries)"

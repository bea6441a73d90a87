(* Figure 9: echo latency over the Demikernel-style TCP stack — raw packet
   echo vs the four serialization backends. Box statistics
   (p5/p25/p50/p75/p99) at a moderate fixed load, as the paper reports
   latency rather than peak throughput for TCP.

   Everything rides the shared Transport path: the rig is created with
   [~transport:`Tcp], so the same Echo_app handlers and Loadgen drivers
   that produce the UDP figures run here unchanged — serialize-and-send
   and the [_zc] fast paths apply to TCP frames, and the 3-way handshakes
   fall inside the warmup window. *)

let sizes = [ 2048; 2048 ]

let modes =
  Apps.Echo_app.No_serialization
  :: List.map (fun b -> Apps.Echo_app.Lib b) Apps.Backend.all

let make_driver app =
  {
    Util.send =
      (fun client ~dst ~id ->
        Apps.Echo_app.send_request app ~sizes client ~dst ~id);
    parse_id = Apps.Echo_app.parse_id app;
  }

(* Each run gets its own rig (own engine/space), matching the
   capacity-then-rated-point protocol of the UDP curves: estimate
   saturation closed-loop, then measure latency open-loop at 85% of it. *)
let run_mode mode =
  let capacity =
    let rig = Apps.Rig.create ~n_clients:4 ~transport:`Tcp () in
    let d = make_driver (Apps.Echo_app.install rig mode) in
    (Util.capacity rig d).Loadgen.Driver.achieved_rps
  in
  let rate = 0.85 *. capacity in
  let rig = Apps.Rig.create ~n_clients:4 ~transport:`Tcp () in
  let d = make_driver (Apps.Echo_app.install rig mode) in
  let b = Util.budget () in
  let r =
    Loadgen.Driver.open_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
      ~server:Apps.Rig.server_id ~rate_rps:rate ~duration_ns:b.Util.point_ns
      ~warmup_ns:b.Util.warmup_ns ~rng:rig.Apps.Rig.rng ~send:d.Util.send
      ~parse_id:d.Util.parse_id
  in
  (Apps.Echo_app.mode_name mode, rate, r.Loadgen.Driver.hist)

let run () =
  let t =
    Stats.Table.create
      ~title:
        "Figure 9: echo latency over the TCP stack (2 x 2048 B), 85% of \
         each mode's capacity"
      ~columns:
        [ "system"; "offered krps"; "p5 us"; "p25 us"; "p50 us"; "p75 us"; "p99 us" ]
  in
  let rows =
    (* One job per mode: the capacity estimate and the rated latency run
       share nothing with the other modes. *)
    Util.par_map run_mode modes
  in
  List.iter
    (fun (name, rate, hist) ->
      let q p =
        Printf.sprintf "%.1f"
          (float_of_int (Stats.Histogram.percentile hist p) /. 1e3)
      in
      Stats.Table.add_row t
        [
          name;
          Printf.sprintf "%.0f" (rate /. 1e3);
          q 0.05; q 0.25; q 0.50; q 0.75; q 0.99;
        ])
    rows;
  Stats.Table.print t;
  print_endline
    "  (paper: Cornflakes sits 4.9-10.8 us above raw echo and 18-27.8 us \
     below FlatBuffers at the tail)"

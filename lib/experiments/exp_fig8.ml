(* Figure 8: Redis with its handwritten serialization vs Redis with
   Cornflakes, serving the Twitter trace over the same UDP stack. Paper:
   +8.8% throughput at the ~59 us tail SLO. *)

let modes =
  [
    Mini_redis.Server.Native;
    Mini_redis.Server.Cornflakes_backed Cornflakes.Config.default;
  ]

let redis_curve mode ~workload ~list_values =
  let rig = Apps.Rig.create () in
  let srv = Mini_redis.Server.install rig mode ~workload ~list_values in
  let d =
    {
      Util.send = (fun ep ~dst ~id -> Mini_redis.Server.send_next srv ep ~dst ~id);
      parse_id = None;
    }
  in
  let cap = Util.capacity rig d in
  Util.curve rig d
    ~name:(Mini_redis.Server.mode_name mode)
    ~capacity_rps:cap.Loadgen.Driver.achieved_rps

let run () =
  let slo_ns = 59_000 in
  let curves =
    Util.par_map
      (Util.with_rig_life (fun mode ->
           redis_curve mode ~workload:(Workload.Twitter.make ())
             ~list_values:false))
      modes
  in
  Util.print_curves ~title:"Figure 8: Redis serialization vs Cornflakes (Twitter)"
    ~slo_ns curves;
  let find name = List.find (fun c -> Stats.Curve.name c = name) curves in
  let cf = Util.tput_at_slo (find "redis-cornflakes") ~slo_ns in
  let native = Util.tput_at_slo (find "redis-native") ~slo_ns in
  Printf.printf
    "  headline: redis+cornflakes %s krps vs redis %s krps -> %s (paper: +8.8%%)\n"
    (Util.krps cf) (Util.krps native) (Util.pct_delta native cf)

(* End-to-end benchmark: the four request paths of the reproduction, each
   measured on two clocks.

   - sim: the modeled NIC/cache nanoseconds, deterministic for a seed (the
     reproduction's claim);
   - wall/GC: the real cost of the OCaml code, which bounds how large an
     experiment can be.

   A run builds the workload's system from --seed, warms it, then drives
   open-loop Poisson phases at the frozen [low] and [high] rates and finally
   a capacity bisection (last, so its result-dependent probe sequence cannot
   change what the fixed-rate phases see). Fresh passes of set-up + low +
   high repeat until --seconds is spent; wall and GC metrics are medians
   over passes, and every pass must reproduce the first pass's sim metrics
   exactly. One process, one domain.

   Usage:
     e2e --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
     e2e --check [--workload NAME|all] [--seed N] [--trace 0|1]

   The last stdout line of a timed run is one JSON object: correct,
   attempted, failed and the metrics (end-to-end with --trace 0, per-layer
   with --trace 1), each with its unit. --check runs a short budget of each
   workload under RefSan, twice (the second pass traced), and exits 1 on
   any failure; its stdout holds only sim-clock results. *)

(* Requests per phase; each phase's sim duration follows from its rate.
   The high phase holds 2 x 10^5 samples, so p99.9 has 200 beyond it. *)
type budget = {
  warm_reqs : int option; (* [None]: the workload's own warm-up *)
  low_reqs : int;
  high_reqs : int;
  rate_scale : float; (* applied to the low and high rates *)
  probe_reqs : int; (* per capacity probe *)
  steps : int; (* capacity bisection steps *)
}

let timed =
  {
    warm_reqs = None;
    low_reqs = 40_000;
    high_reqs = 200_000;
    rate_scale = 1.0;
    probe_reqs = 30_000;
    steps = 7;
  }

(* --check: a few thousand requests, too few to warm the simulated caches,
   so the rates are halved to keep every latency far below the retry
   timeout (a retry on a lossless fabric fails the check). *)
let short =
  {
    warm_reqs = Some 200;
    low_reqs = 1_000;
    high_reqs = 2_000;
    rate_scale = 0.5;
    probe_reqs = 0;
    steps = 0;
  }

(* The latency limit of every workload's capacity search. *)
let slo_ns = 50_000

let min_passes = 2

let wall_s () = float_of_int (Spans.now ()) /. 1e9

(* --- one pass ------------------------------------------------------------ *)

type phase = {
  issued : int;
  answered : int;
  errors : int;
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
  mean_ns : float;
}

let harvest (l : Ledger.t) =
  {
    issued = Ledger.issued l;
    answered = Ledger.answered l;
    errors = Ledger.errors l;
    p50_ns = Ledger.percentile l 0.50;
    p99_ns = Ledger.percentile l 0.99;
    p999_ns = Ledger.percentile l 0.999;
    mean_ns = Ledger.mean_ns l;
  }

type pass = {
  traced : bool;
  one_way_ns : int;
  setup_s : float;
  warm : phase;
  low : phase;
  high : phase;
  wall_ns : float; (* low + high, wall clock *)
  sim_window_ns : int; (* low + high, sim clock *)
  minor_words : float; (* low + high *)
  promoted_words : float;
  top_heap_words : int;
  snap0 : (string * float) list;
  snap1 : (string * float) list;
  span_totals : (string * float * float) list; (* name, ns/req, words/req *)
  spans_ns : float;
  problems : string list;
}

let requests p = p.low.issued + p.high.issued

let answered p = p.warm.answered + p.low.answered + p.high.answered

let sim_key p =
  let ph x =
    Printf.sprintf "%d/%d/%d/%d/%d/%.3f" x.issued x.answered x.p50_ns x.p99_ns
      x.p999_ns x.mean_ns
  in
  String.concat " " [ ph p.warm; ph p.low; ph p.high ]

(* Drive [requests] expected arrivals at [krps] into a fresh ledger and
   account their ids. *)
let phase (probe : Systems.probe) (sys : Systems.t) ~krps ~requests =
  Ledger.reset probe.Systems.ledger;
  sys.Systems.drive ~rate_rps:(krps *. 1e3)
    ~duration_ns:(int_of_float (float_of_int requests /. krps *. 1e6));
  let ph = harvest probe.Systems.ledger in
  probe.Systems.first_req <- probe.Systems.first_req + ph.issued;
  ph

let run_pass (w : Systems.workload) ~seed ~budget ~probe ~traced ~deep =
  let spans = probe.Systems.spans in
  let t0 = wall_s () in
  probe.Systems.first_req <- 0;
  let sys = w.Systems.build ~seed probe in
  let low_krps = w.Systems.low_krps *. budget.rate_scale in
  let high_krps = w.Systems.high_krps *. budget.rate_scale in
  let warm =
    phase probe sys ~krps:low_krps
      ~requests:(Option.value budget.warm_reqs ~default:w.Systems.warm_reqs)
  in
  let setup_s = wall_s () -. t0 in
  if traced then Spans.reset spans ~base:probe.Systems.first_req;
  let snap0 = sys.Systems.snapshot () in
  spans.Spans.on <- traced;
  let minor0, promoted0, _ = Gc.counters () in
  let sim0 = Sim.Engine.now sys.Systems.engine in
  let w0 = Spans.now () in
  let low = phase probe sys ~krps:low_krps ~requests:budget.low_reqs in
  let high = phase probe sys ~krps:high_krps ~requests:budget.high_reqs in
  let w1 = Spans.now () in
  let sim_window_ns = Sim.Engine.now sys.Systems.engine - sim0 in
  let minor1, promoted1, _ = Gc.counters () in
  spans.Spans.on <- false;
  let snap1 = sys.Systems.snapshot () in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let ledger_problems =
    List.filter_map
      (fun (name, ph) ->
        if ph.errors = 0 then None
        else
          Some
            (Printf.sprintf "%s phase: %d reply integrity errors" name
               ph.errors))
      [ ("warm", warm); ("low", low); ("high", high) ]
  in
  let n = low.issued + high.issued in
  let p =
    {
      traced;
      one_way_ns = sys.Systems.one_way_ns;
      setup_s;
      warm;
      low;
      high;
      wall_ns = float_of_int (w1 - w0);
      sim_window_ns;
      minor_words = minor1 -. minor0;
      promoted_words = promoted1 -. promoted0;
      top_heap_words;
      snap0;
      snap1;
      span_totals =
        (if traced then Spans.per_request spans ~requests:n else []);
      spans_ns = (if traced then Spans.total_ns spans else 0.0);
      problems = ledger_problems @ sys.Systems.audit ~deep;
    }
  in
  (sys, p)

(* Highest offered rate (krps) whose probe meets the p99 SLO with at least
   99% of its requests answered; unanswered requests count as missing the
   SLO. Plain bisection over the workload's bracket. *)
let capacity (w : Systems.workload) ~budget ~probe sys =
  let meets krps =
    let ph = phase probe sys ~krps ~requests:budget.probe_reqs in
    ph.p99_ns <= slo_ns
    && float_of_int ph.answered >= 0.99 *. float_of_int ph.issued
  in
  let lo = ref w.Systems.cap_lo_krps and hi = ref w.Systems.cap_hi_krps in
  for _ = 1 to budget.steps do
    let mid = (!lo +. !hi) /. 2.0 in
    if meets mid then lo := mid else hi := mid
  done;
  !lo

(* --- metrics ------------------------------------------------------------- *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

let us ns = float_of_int ns /. 1e3

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let per_req p x = x /. float_of_int (max 1 (requests p))

let end_to_end ~capacity_krps (first : pass) passes =
  let med f = median (List.map f passes) in
  [
    m "capacity_krps" "krps" capacity_krps;
    m "p50_us" "us" (us first.high.p50_ns);
    m "p99_us" "us" (us first.high.p99_ns);
    m "p999_us" "us" (us first.high.p999_ns);
    m "p99_us_low" "us" (us first.low.p99_ns);
    m "wall_us_per_req" "us" (med (fun p -> per_req p p.wall_ns /. 1e3));
    m "minor_words_per_req" "words" (med (fun p -> per_req p p.minor_words));
    m "promoted_words_per_req" "words"
      (med (fun p -> per_req p p.promoted_words));
    m "peak_heap_mb" "MB" (float_of_int (first.top_heap_words * 8) /. 1e6);
    m "setup_s" "s" (med (fun p -> p.setup_s));
  ]

let get snap k = Option.value (List.assoc_opt k snap) ~default:0.0

let delta p k = get p.snap1 k -. get p.snap0 k

(* Deltas of a per-server counter family ([busy.0], [busy.1], ...). *)
let family p prefix =
  List.filter_map
    (fun (k, _) ->
      if String.starts_with ~prefix k then Some (delta p k) else None)
    p.snap1

(* Per-layer metrics of the measured window (low + high). Sim-clock and
   counter rows come from the first pass (every pass reproduces them);
   wall spans are medians over the traced passes. *)
let per_layer (p : pass) ~traced ~untraced =
  let d = delta p in
  let n = float_of_int (max 1 (requests p)) in
  let service = d "service_ns" /. n in
  let mean_rtt =
    let a = float_of_int p.low.answered and b = float_of_int p.high.answered in
    ((p.low.mean_ns *. a) +. (p.high.mean_ns *. b)) /. Float.max 1.0 (a +. b)
  in
  let busy = List.fold_left Float.max 0.0 (family p "busy.") in
  let shard_served = family p "shard_served." in
  let cluster = shard_served <> [] in
  let imbalance =
    if not cluster then 0.0
    else
      let mean =
        List.fold_left ( +. ) 0.0 shard_served
        /. float_of_int (List.length shard_served)
      in
      List.fold_left Float.max 0.0 shard_served /. Float.max 1.0 mean
  in
  let med f l = median (List.map f l) in
  let span name f =
    med
      (fun q ->
        match List.find_opt (fun (nm, _, _) -> nm = name) q.span_totals with
        | Some (_, ns, words) -> f ns words
        | None -> 0.0)
      traced
  in
  let wall_per_req q = per_req q q.wall_ns in
  [
    m "loadgen.service_ns" "ns/req" service;
    m "loadgen.busy_frac" "frac" (busy /. float_of_int p.sim_window_ns);
    m "loadgen.queue_wait_ns" "ns/req"
      (mean_rtt -. service -. float_of_int (2 * p.one_way_ns));
    m "loadgen.dropped" "count" (d "queue_drops");
  ]
  @ List.map
      (fun (_, cat) ->
        m ("memmodel." ^ cat ^ "_ns") "ns/req" (d ("cpu." ^ cat) /. n))
      Systems.categories
  @ [
      m "nic.tx_packets_per_req" "1/req" (d "tx_packets" /. n);
      m "nic.tx_bytes_per_req" "B/req" (d "tx_bytes" /. n);
      m "nic.doorbells_per_req" "1/req" (d "doorbells" /. n);
      m "nic.rx_dropped" "count" (d "rx_dropped");
      m "net.fabric_delivered_per_req" "1/req" (d "fab_delivered" /. n);
      m "net.fabric_dropped" "count" (d "fab_dropped");
      m "net.fabric_reordered" "count" (d "fab_reordered");
      m "net.fabric_duplicated" "count" (d "fab_duplicated");
      m "net.reliab_tracked" "count" (d "rel_tracked");
      m "net.reliab_retries" "count" (d "rel_retries");
      m "net.reliab_timeouts" "count" (d "rel_timeouts");
      m "tcp.packets_per_req" "1/req" (d "tcp_packets" /. n);
      m "rpc.calls" "count" (d "rpc_calls");
      m "rpc.replies" "count" (d "rpc_replies");
      m "rpc.orphans" "count" (d "rpc_orphans");
      m "rpc.abandoned" "count" (d "rpc_abandoned");
      m "core.pressure_demotions" "count" (d "demotions");
      m "core.oom_fallbacks" "count" (d "oom_fallbacks");
      m "mem.recycle_hits_per_req" "1/req" (d "recycle_hits" /. n);
      m "mem.oom_events" "count" (d "oom_events");
      m "cluster.dispatcher_share" "frac"
        (if cluster then d "disp_service_ns" /. Float.max 1.0 (d "service_ns")
         else 0.0);
      m "cluster.zc_forwards_per_req" "1/req" (d "zc_forwards" /. n);
      m "cluster.copy_forwards_per_req" "1/req" (d "copy_forwards" /. n);
      m "cluster.stash_copies" "count" (d "stash_copies");
      m "cluster.partials_per_fanout" "ratio"
        (if cluster then d "partials" /. Float.max 1.0 (d "fanouts") else 0.0);
      m "cluster.imbalance" "ratio" imbalance;
      m "cluster.adaptive_threshold" "B" (get p.snap1 "threshold");
      m "replication.committed_frac" "frac"
        (let puts = d "puts_answered" in
         if puts > 0.0 then d "committed" /. puts else 0.0);
    ]
  @ List.concat_map
      (fun name ->
        [
          m (name ^ "_ns") "ns/req" (span name (fun ns _ -> ns));
          m (name ^ "_words") "words/req" (span name (fun _ words -> words));
        ])
      (Array.to_list Spans.names)
  @ [
      m "engine.residual_ns" "ns/req"
        (med (fun q -> per_req q (q.wall_ns -. q.spans_ns)) traced);
      m "trace.overhead_frac" "frac"
        ((med wall_per_req traced /. med wall_per_req untraced) -. 1.0);
    ]

(* The Fig. 11 split must account for the whole service time. *)
let split_problems layers =
  let value name = (List.find (fun x -> x.name = name) layers).value in
  let split =
    List.fold_left
      (fun acc (_, cat) -> acc +. value ("memmodel." ^ cat ^ "_ns"))
      0.0 Systems.categories
  in
  let service = value "loadgen.service_ns" in
  if Float.abs (split -. service) <= 0.01 *. service then []
  else
    [ Printf.sprintf "memmodel split %.1f ns != service %.1f ns" split service ]

(* --- output -------------------------------------------------------------- *)

let number v = if Float.is_finite v then Printf.sprintf "%.15g" v else "1e308"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "  %-30s %18s %s\n" x.name (number x.value) x.unit)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
              (number x.value) x.unit)
          metrics))

(* --- timed run ----------------------------------------------------------- *)

let run_timed (w : Systems.workload) ~seed ~seconds ~trace ~trace_out =
  let t0 = wall_s () in
  let probe =
    {
      Systems.ledger = Ledger.create ();
      spans = Spans.create ();
      check = false;
      first_req = 0;
    }
  in
  let pass ~traced =
    run_pass w ~seed ~budget:timed ~probe ~traced ~deep:false
  in
  let sys, first = pass ~traced:false in
  let capacity_krps =
    if trace then 0.0 else capacity w ~budget:timed ~probe sys
  in
  (* With --trace 1, traced and untraced passes alternate. *)
  let passes = ref [ first ] in
  while List.length !passes < min_passes || wall_s () -. t0 < seconds do
    Gc.full_major ();
    let _, p = pass ~traced:(trace && List.length !passes mod 2 = 1) in
    passes := p :: !passes
  done;
  let passes = List.rev !passes in
  List.iter
    (fun p ->
      Printf.eprintf "e2e: pass%s: setup %.3f s, wall %.3f us/req\n"
        (if p.traced then " (traced)" else "")
        p.setup_s
        (per_req p p.wall_ns /. 1e3))
    passes;
  let traced = List.filter (fun p -> p.traced) passes in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let metrics =
    if trace then per_layer first ~traced ~untraced
    else end_to_end ~capacity_krps first passes
  in
  (match trace_out with
  | Some path when trace ->
      Spans.write probe.Systems.spans ~path
        ~header:
          (Printf.sprintf "\"workload\": %S, \"seed\": %d" w.Systems.name seed)
        ~residual_ns_per_req:
          (List.find (fun x -> x.name = "engine.residual_ns") metrics).value
  | _ -> ());
  let problems =
    List.concat_map (fun p -> p.problems) passes
    @ List.filter_map
        (fun p ->
          if sim_key p = sim_key first then None
          else Some "a pass did not reproduce the first pass's sim metrics")
        passes
    @ if trace then split_problems metrics else []
  in
  let attempted =
    List.fold_left (fun acc p -> acc + p.warm.issued + requests p) 0 passes
  in
  let failed =
    attempted - List.fold_left (fun acc p -> acc + answered p) 0 passes
  in
  List.iter (fun s -> Printf.eprintf "e2e: %s: %s\n" w.Systems.name s) problems;
  Printf.printf
    "e2e %s seed=%d trace=%d: %d passes (%d traced), %d high-rate samples, \
     %.1f s\n"
    w.Systems.name seed (Bool.to_int trace) (List.length passes)
    (List.length traced) first.high.answered (wall_s () -. t0);
  print_result ~correct:(problems = [] && failed = 0) ~attempted ~failed metrics

(* --- check --------------------------------------------------------------- *)

let sim_line (w : Systems.workload) ~seed (p : pass) =
  Printf.sprintf
    "%s seed=%d: warm %d/%d, low %d/%d p99_us=%.2f, high %d/%d p50_us=%.2f \
     p99_us=%.2f p999_us=%.2f"
    w.Systems.name seed p.warm.answered p.warm.issued p.low.answered
    p.low.issued (us p.low.p99_ns) p.high.answered p.high.issued
    (us p.high.p50_ns) (us p.high.p99_ns) (us p.high.p999_ns)

(* A short budget under RefSan, run twice with the second pass traced: any
   ledger, audit or RefSan failure, an unanswered request, or a sim-metric
   difference between the passes fails the check. *)
let run_check workloads ~seed ~trace =
  Sanitizer.Refsan.set_enabled true;
  let probe =
    {
      Systems.ledger = Ledger.create ();
      spans = Spans.create ();
      check = true;
      first_req = 0;
    }
  in
  let check_pass w ~traced =
    let sys, p = run_pass w ~seed ~budget:short ~probe ~traced ~deep:true in
    Sim.Engine.quiesce sys.Systems.engine;
    let leaks = List.length (Sanitizer.Refsan.leaks ()) in
    let hazards = Sanitizer.Refsan.hazard_count () in
    let diags = List.length (Sanitizer.Refsan.diagnostics ()) in
    Sanitizer.Refsan.checkpoint ();
    let unanswered = p.warm.issued + requests p - answered p in
    ( p,
      p.problems
      @ (if leaks + hazards + diags = 0 then []
         else
           [
             Printf.sprintf "refsan: %d leaks, %d hazards, %d diagnostics"
               leaks hazards diags;
           ])
      @
      if unanswered = 0 then []
      else [ Printf.sprintf "%d requests unanswered" unanswered ] )
  in
  let ok =
    List.fold_left
      (fun ok (w : Systems.workload) ->
        let p1, pr1 = check_pass w ~traced:trace in
        let p2, pr2 = check_pass w ~traced:true in
        let problems =
          pr1 @ pr2
          @
          if sim_key p1 = sim_key p2 then []
          else [ "traced pass sim metrics differ" ]
        in
        Printf.printf "%s\n" (sim_line w ~seed p1);
        List.iter
          (fun s ->
            Printf.printf "  FAIL %s (seed %d): %s\n" w.Systems.name seed s)
          problems;
        ok && problems = [])
      true workloads
  in
  Printf.printf "check: %s\n%!" (if ok then "ok" else "FAILED");
  if not ok then exit 1

(* --- CLI ----------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: e2e --workload NAME --seed N --seconds S --trace 0|1 \
     [--trace-out FILE]\n\
    \       e2e --check [--workload NAME|all] [--seed N] [--trace 0|1]\n\
     workloads: kv-get-udp kv-get-tcp-lossy cluster-mget-udp repl-put50-udp";
  exit 2

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 10.0 in
  let trace = ref false and trace_out = ref None and check = ref false in
  let int_arg s =
    match int_of_string_opt s with Some n -> n | None -> usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_arg n;
        parse rest
    | "--seconds" :: n :: rest ->
        seconds := float_of_int (int_arg n);
        parse rest
    | "--trace" :: n :: rest ->
        trace := int_arg n <> 0;
        parse rest
    | "--trace-out" :: f :: rest ->
        trace_out := Some f;
        parse rest
    | "--check" :: rest ->
        check := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let find name =
    match
      List.find_opt (fun (w : Systems.workload) -> w.Systems.name = name)
        Systems.all
    with
    | Some w -> w
    | None -> usage ()
  in
  if !check then
    run_check
      (match !workload with
      | None | Some "all" -> Systems.all
      | Some name -> [ find name ])
      ~seed:!seed ~trace:!trace
  else
    match !workload with
    | None -> usage ()
    | Some name ->
        run_timed (find name) ~seed:!seed ~seconds:!seconds ~trace:!trace
          ~trace_out:!trace_out

(* Wall-clock spans around the benchmark's own calls into the client-side
   layers ([--trace 1]): [build] (workload draw + request build), [call]
   (the system's send API down to the NIC post) and [deliver] (reply parse
   and routing). Each span also counts the minor-heap words allocated
   inside it. Spans never nest, so one open-span slot suffices; the clock
   is [Monotonic_clock.now] (ns), fine enough for 1-3 us spans.

   Totals cover every traced request. Per-request rows (start/end of each
   span) are kept for the first [rows_cap] requests, written out by
   [write] for [--trace-out]. *)

type kind = Build | Call | Deliver

let names = [| "client.build"; "client.call"; "client.deliver" |]

let index = function Build -> 0 | Call -> 1 | Deliver -> 2

let rows_cap = 10_000

type t = {
  mutable on : bool;
  ns : float array; (* per kind: total ns *)
  words : float array; (* per kind: total minor words *)
  count : int array;
  hist : Stats.Histogram.t array; (* per kind: span durations *)
  rows : int array; (* rows_cap x (start, end) per kind *)
  mutable rows_used : int;
  mutable base : int; (* request number of the first row *)
  mutable t0 : int; (* open span: start ns *)
  w0 : float array; (* open span: minor words at start (unboxed) *)
}

let create () =
  {
    on = false;
    ns = Array.make 3 0.0;
    words = Array.make 3 0.0;
    count = Array.make 3 0;
    hist =
      Array.init 3 (fun _ ->
          Stats.Histogram.create ~resolution_ns:10 ~max_ns:1_000_000 ());
    rows = Array.make (rows_cap * 6) 0;
    rows_used = 0;
    base = 0;
    t0 = 0;
    w0 = [| 0.0 |];
  }

(* Clear totals and rows; request [base] becomes row 0. *)
let reset t ~base =
  t.base <- base;
  Array.fill t.ns 0 3 0.0;
  Array.fill t.words 0 3 0.0;
  Array.fill t.count 0 3 0;
  Array.iter Stats.Histogram.clear t.hist;
  Array.fill t.rows 0 (Array.length t.rows) 0;
  t.rows_used <- 0

let now () = Int64.to_int (Monotonic_clock.now ())

let enter t =
  if t.on then begin
    t.w0.(0) <- Gc.minor_words ();
    t.t0 <- now ()
  end

(* Close the open span as [kind] of request number [req]. *)
let leave t kind ~req =
  if t.on then begin
    let req = req - t.base in
    let t1 = now () in
    let w1 = Gc.minor_words () in
    let k = index kind in
    let d = t1 - t.t0 in
    t.ns.(k) <- t.ns.(k) +. float_of_int d;
    t.words.(k) <- t.words.(k) +. (w1 -. t.w0.(0));
    t.count.(k) <- t.count.(k) + 1;
    Stats.Histogram.record t.hist.(k) d;
    if req >= 0 && req < rows_cap then begin
      t.rows.((req * 6) + (2 * k)) <- t.t0;
      t.rows.((req * 6) + (2 * k) + 1) <- t1;
      if req >= t.rows_used then t.rows_used <- req + 1
    end
  end

let total_ns t = t.ns.(0) +. t.ns.(1) +. t.ns.(2)

(* Mean ns and words per request for each kind, over [requests]. *)
let per_request t ~requests =
  let n = float_of_int (max 1 requests) in
  Array.to_list
    (Array.mapi
       (fun k name -> (name, t.ns.(k) /. n, t.words.(k) /. n))
       names)

(* Trace file: per-layer mean/p50/p99 of span durations, then one record
   per span of the first [rows_cap] requests. A request's [request] span
   runs from its build start to its deliver end; the three client spans
   name it as parent. *)
let write t ~path ~header ~residual_ns_per_req =
  let oc = open_out path in
  Printf.fprintf oc "{%s,\n \"layers\": {\n" header;
  Array.iteri
    (fun k name ->
      let h = t.hist.(k) in
      let pct p =
        if Stats.Histogram.count h = 0 then 0 else Stats.Histogram.percentile h p
      in
      Printf.fprintf oc
        "  %S: {\"spans\": %d, \"mean_ns\": %.1f, \"p50_ns\": %d, \
         \"p99_ns\": %d, \"mean_words\": %.2f},\n"
        name t.count.(k)
        (t.ns.(k) /. float_of_int (max 1 t.count.(k)))
        (pct 0.50) (pct 0.99)
        (t.words.(k) /. float_of_int (max 1 t.count.(k))))
    names;
  Printf.fprintf oc "  \"engine.residual\": {\"mean_ns_per_req\": %.1f}\n },\n"
    residual_ns_per_req;
  Printf.fprintf oc " \"spans\": [\n";
  let first = ref true in
  let emit ~req ~name ~start ~stop ~parent =
    if start > 0 then begin
      if not !first then output_string oc ",\n";
      first := false;
      Printf.fprintf oc
        "  {\"req\": %d, \"name\": %S, \"start_ns\": %d, \"end_ns\": %d, \
         \"parent\": %s}"
        req name start stop parent
    end
  in
  for req = 0 to t.rows_used - 1 do
    let base = req * 6 in
    emit ~req ~name:"request" ~start:t.rows.(base) ~stop:t.rows.(base + 5)
      ~parent:"null";
    Array.iteri
      (fun k name ->
        emit ~req ~name ~start:t.rows.(base + (2 * k))
          ~stop:t.rows.(base + (2 * k) + 1)
          ~parent:"\"request\"")
      names
  done;
  output_string oc "\n ]\n}\n";
  close_out oc

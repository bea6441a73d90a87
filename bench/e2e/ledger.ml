(* Per-phase request ledger: the benchmark's own latency record.

   [Loadgen.Driver] bins latency in 1 us buckets, too coarse for the
   3-30 us requests of these workloads, so the wrapped send stamps the sim
   clock (the due time: simulated arrivals fire exactly on schedule) and the
   wrapped reply parse stamps it again. Only the first reply per id counts.
   Driver ids run 1..n within one phase, so every table is a flat array
   indexed by that id. *)

type t = {
  hist : Stats.Histogram.t;
  mutable due : int array; (* id -> sim ns of the first send *)
  mutable expect : int array; (* id -> values the reply must carry *)
  mutable replies : int array; (* id -> replies seen *)
  mutable issued : int;
  mutable answered : int;
  mutable duplicates : int; (* replies beyond the first for an id *)
  mutable unknown : int; (* replies for ids never issued *)
  mutable bad_counts : int; (* value count differs from key count *)
  mutable bad_values : int; (* value bytes differ from the filler *)
}

(* 1 ns bins, so a percentile keeps every digit of the sim clock. Latencies
   above [max_ns] land in the overflow bucket: every measured request
   completes far below it, and an overloaded capacity probe only needs to
   read as "over the SLO". *)
let max_ns = 2_000_000

let create () =
  {
    hist = Stats.Histogram.create ~resolution_ns:1 ~max_ns ();
    due = Array.make 4096 (-1);
    expect = Array.make 4096 0;
    replies = Array.make 4096 0;
    issued = 0;
    answered = 0;
    duplicates = 0;
    unknown = 0;
    bad_counts = 0;
    bad_values = 0;
  }

(* Start a new phase on the same storage. *)
let reset t =
  Stats.Histogram.clear t.hist;
  Array.fill t.due 0 (Array.length t.due) (-1);
  Array.fill t.replies 0 (Array.length t.replies) 0;
  t.issued <- 0;
  t.answered <- 0;
  t.duplicates <- 0;
  t.unknown <- 0;
  t.bad_counts <- 0;
  t.bad_values <- 0

let grow t id =
  let n = Array.length t.due in
  if id >= n then begin
    let m = max (id + 1) (2 * n) in
    let extend a fill =
      let b = Array.make m fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.due <- extend t.due (-1);
    t.expect <- extend t.expect 0;
    t.replies <- extend t.replies 0
  end

(* [now] is the sim clock. [expect] is the number of values a correct reply
   carries: the key count for a get, 0 for a put. A re-send of the same id
   keeps the first due time. *)
let sent t ~now ~id ~expect =
  grow t id;
  if t.due.(id) < 0 then begin
    t.due.(id) <- now;
    t.expect.(id) <- expect;
    t.issued <- t.issued + 1
  end

let known t id = id >= 1 && id < Array.length t.due && t.due.(id) >= 0

(* Values a correct reply to [id] carries; -1 for an id never issued. *)
let expected t ~id = if known t id then t.expect.(id) else -1

(* Record a reply at sim time [now]; true when it is the first for an
   issued id. [nvals] is the reply's value count (-1: not checked) and
   [values_ok] the byte check of its values (both [--check] only). *)
let reply t ~now ~id ~nvals ~values_ok =
  if not (known t id) then begin
    t.unknown <- t.unknown + 1;
    false
  end
  else begin
    let n = t.replies.(id) in
    t.replies.(id) <- n + 1;
    if n > 0 then begin
      t.duplicates <- t.duplicates + 1;
      false
    end
    else begin
      t.answered <- t.answered + 1;
      Stats.Histogram.record t.hist (now - t.due.(id));
      if nvals >= 0 && nvals <> t.expect.(id) then
        t.bad_counts <- t.bad_counts + 1;
      if not values_ok then t.bad_values <- t.bad_values + 1;
      true
    end
  end

let issued t = t.issued

let answered t = t.answered

let mean_ns t = Stats.Histogram.mean t.hist

(* Percentile over every issued request, an unanswered one counting as
   slower than any answer (it misses every latency limit). In ns. *)
let percentile t p =
  if t.issued = 0 then 0
  else if t.answered = t.issued then Stats.Histogram.percentile t.hist p
  else begin
    let rank = int_of_float (ceil (p *. float_of_int t.issued)) in
    if rank > t.answered then max_int
    else
      Stats.Histogram.percentile t.hist
        (float_of_int rank /. float_of_int t.answered)
  end

(* Integrity failures a timed run must not show: duplicate or unknown
   reply ids, and value-count or value-byte mismatches. *)
let errors t = t.duplicates + t.unknown + t.bad_counts + t.bad_values

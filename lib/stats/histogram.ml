type t = {
  resolution_ns : int;
  buckets : int array; (* last bucket catches overflow *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : int;
  mutable max_v : int;
}

let create ?(resolution_ns = 1_000) ?(max_ns = 100_000_000) () =
  assert (resolution_ns > 0);
  let n = (max_ns / resolution_ns) + 2 in
  {
    resolution_ns;
    buckets = Array.make n 0;
    count = 0;
    sum = 0.0;
    min_v = max_int;
    max_v = 0;
  }

let record t v =
  let v = if v < 0 then 0 else v in
  (* Ceil-binning: a sample equal to a bucket edge reports that edge, so
     percentile always returns an upper bound on the sample. *)
  let idx = (v + t.resolution_ns - 1) / t.resolution_ns in
  let idx = if idx >= Array.length t.buckets then Array.length t.buckets - 1 else idx in
  t.buckets.(idx) <- t.buckets.(idx) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. float_of_int v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count

let percentile t p =
  if t.count = 0 then invalid_arg "Histogram.percentile: empty";
  let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
  let target = int_of_float (ceil (p *. float_of_int t.count)) in
  let target = if target < 1 then 1 else target in
  let acc = ref 0 and idx = ref 0 in
  let n = Array.length t.buckets in
  while !acc < target && !idx < n do
    acc := !acc + t.buckets.(!idx);
    incr idx
  done;
  (* Upper bound of the bucket the target sample fell in: bucket k holds
     values in ((k-1) * res, k * res]. *)
  max 0 (!idx - 1) * t.resolution_ns

let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count

let min_ns t = if t.count = 0 then 0 else t.min_v

let max_ns t = t.max_v

let clear t =
  Array.fill t.buckets 0 (Array.length t.buckets) 0;
  t.count <- 0;
  t.sum <- 0.0;
  t.min_v <- max_int;
  t.max_v <- 0

let merge_into ~dst ~src =
  if dst.resolution_ns <> src.resolution_ns then
    invalid_arg "Histogram.merge_into: resolution mismatch";
  Array.iteri (fun i v -> dst.buckets.(i) <- dst.buckets.(i) + v) src.buckets;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum +. src.sum;
  if src.min_v < dst.min_v then dst.min_v <- src.min_v;
  if src.max_v > dst.max_v then dst.max_v <- src.max_v

(* Count the distinct refcount-metadata cache lines behind the first [n]
   entries of a gather array: the unit of completion-side metadata misses.
   SGE counts are bounded by the NIC model (tens at most), so the quadratic
   scan beats sort_uniq's list churn on the hot path, and allocates
   nothing. *)
let distinct_meta_lines_arr bufs ~n =
  let distinct = ref 0 in
  for i = 0 to n - 1 do
    let line = Mem.Pinned.Buf.metadata_addr bufs.(i) lsr 6 in
    let seen = ref false in
    for j = 0 to i - 1 do
      if Mem.Pinned.Buf.metadata_addr bufs.(j) lsr 6 = line then seen := true
    done;
    if not !seen then incr distinct
  done;
  !distinct

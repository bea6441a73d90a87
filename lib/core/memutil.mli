(** [distinct_meta_lines_arr bufs ~n] — how many distinct refcount cache
    lines the metadata of the first [n] buffers occupies (completion
    releases pay one miss per line, not per buffer). Allocation-free for
    the hot send path (SGE counts are small, so the O(n²) scan is cheap). *)
val distinct_meta_lines_arr : Mem.Pinned.Buf.t array -> n:int -> int

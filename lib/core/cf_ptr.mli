(** The hybrid smart-pointer constructor (paper Listing 3, §3.2.2).

    [make] is agnostic to where the argument bytes live. It runs the
    scatter-gather heuristic at construction time — the paper's key design
    point: deciding per field, when the [CFPtr] is built, means each field
    pays {e either} a data cache cost (copy) {e or} a metadata cache cost
    (refcount), never both (§3.2.1).

    - size below threshold → copy into the per-request arena ([Copied]);
    - size at/above threshold → [recover_ptr]; if the bytes lie in a live
      pinned allocation, take a reference ([Zero_copy]);
    - otherwise (non-DMA-safe memory) → copy. Memory transparency: the
      caller never needs to know.

    Resilience: when the arena refuses a copy ([Out_of_memory]) but the
    bytes are DMA-safe, the constructor falls back to zero-copy instead of
    failing the request — the inverse of the usual demotion. Only a
    sub-threshold copy of non-pinned bytes still raises. *)

(** [make_at ~cpu ~threshold ep view] builds a payload from arbitrary
    bytes: zero-copy iff [view.len >= threshold]. This compare is the one
    copy/zero-copy decision in the stack; {!Adaptive} calls it with the
    threshold it is learning. *)
val make_at :
  cpu:Memmodel.Cpu.t ->
  threshold:int ->
  Net.Endpoint.t ->
  Mem.View.t ->
  Wire.Payload.t

(** [make ~cpu config ep view] = [make_at ~threshold:config.zero_copy_threshold]. *)
val make :
  cpu:Memmodel.Cpu.t ->
  Config.t ->
  Net.Endpoint.t ->
  Mem.View.t ->
  Wire.Payload.t

(** The two arms of {!make}, exposed for specialized (codegen-folded)
    setters whose schema bounds prove the decision at compile time:
    [copy_folded] when [max_size < crossover], [zc_folded] when
    [min_size >= crossover]. Each keeps {!make}'s resilience behaviour
    (arena exhaustion falls back to zero-copy; non-DMA-safe bytes fall back
    to copy), so a stale bound degrades gracefully instead of failing. *)

val copy_folded :
  cpu:Memmodel.Cpu.t ->
  Config.t ->
  Net.Endpoint.t ->
  Mem.View.t ->
  Wire.Payload.t

val zc_folded :
  cpu:Memmodel.Cpu.t ->
  Config.t ->
  Net.Endpoint.t ->
  Mem.View.t ->
  Wire.Payload.t

(** [of_buf ~cpu ?site ~threshold ep p] applies the same compare to a
    payload the caller already holds (e.g. a [Zero_copy] value retained
    from a received frame; no recover_ptr lookup is needed): a [Zero_copy]
    buffer shorter than [threshold] is copied into [ep]'s arena and its
    reference dropped, both under [site]. Otherwise [p] itself is returned,
    its reference untouched and nothing allocated. *)
val of_buf :
  cpu:Memmodel.Cpu.t ->
  ?site:string ->
  threshold:int ->
  Net.Endpoint.t ->
  Wire.Payload.t ->
  Wire.Payload.t

(** Copies refused by an exhausted arena that fell back to zero-copy
    (domain-local counter; harnesses snapshot deltas). *)
val oom_fallbacks : unit -> int

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

(** [make ~cpu config ep view] builds a payload from arbitrary bytes. The
    size test is a lookup in a precomputed {!Mem.Arena.Verdict} table over
    the arena's 16 B size classes (cached per domain, keyed by the config's
    threshold) — semantically identical to [len >= threshold]. *)
val make :
  cpu:Memmodel.Cpu.t ->
  Config.t ->
  Net.Endpoint.t ->
  Mem.View.t ->
  Wire.Payload.t

(** The two arms of {!make}, exposed for specialized (codegen-folded)
    setters whose schema bounds prove the verdict at compile time:
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

(** [of_buf ~cpu config buf] builds a payload from an already-referenced
    pinned buffer (e.g. a value freshly read from the store, or a field of a
    deserialized request): no recover_ptr lookup is needed, but the
    threshold still applies — a small pinned field is copied and its
    reference dropped. Ownership of one reference passes to the payload when
    the zero-copy variant is chosen. *)
val of_buf :
  cpu:Memmodel.Cpu.t ->
  Config.t ->
  Net.Endpoint.t ->
  Mem.Pinned.Buf.t ->
  Wire.Payload.t

(** Copies refused by an exhausted arena that fell back to zero-copy
    (process-wide counter; harnesses snapshot deltas). *)
val oom_fallbacks : unit -> int

val reset_counters : unit -> unit

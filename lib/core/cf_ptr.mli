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
    sub-threshold copy of non-pinned bytes still raises.

    This is the one copy/zero-copy decision in the stack, with one entry
    per input form: {!make} for a view, {!make_buf} for a held buffer,
    {!of_buf} for a held payload; every generated payload setter calls
    {!make}, whatever size bound its schema field declares. Each reads the
    threshold of one policy cell ({!Adaptive.t}: the config's, or the one
    handed in) and, only when the cell learns, times the construction for
    {!Adaptive.learn}, the cell's only writer. *)

(** [make ~cpu config ep view] builds a payload from arbitrary bytes:
    zero-copy iff [view.len] is at least [config.zero_copy]'s threshold. *)
val make :
  cpu:Memmodel.Cpu.t ->
  Config.t ->
  Net.Endpoint.t ->
  Mem.View.t ->
  Wire.Payload.t

(** [make_buf ~cpu config ep buf] is [make ~cpu config ep
    (Mem.Pinned.Buf.view buf)] for a pinned buffer the caller already
    holds (a stored value): the same decision, charges, references, arena
    use, RefSan events and learning step, without the view. The zero-copy arm returns
    [buf] itself with one more reference ({!Mem.Registry.recover_held_exn})
    and allocates only the [Zero_copy] box; the copy arm copies straight
    out of [buf] ({!Mem.Arena.copy_in_buf}). Raises
    [Mem.Pinned.Use_after_free] on a stale [buf]. *)
val make_buf :
  cpu:Memmodel.Cpu.t ->
  Config.t ->
  Net.Endpoint.t ->
  Mem.Pinned.Buf.t ->
  Wire.Payload.t

(** [of_buf ~cpu ?site cell ep p] applies the same decision, at [cell]'s
    threshold, to a payload the caller already holds (e.g. a [Zero_copy]
    value retained from a received frame; no recover_ptr lookup is
    needed): a [Zero_copy] buffer shorter than the threshold is copied
    into [ep]'s arena and its reference dropped, both under [site].
    Otherwise [p] itself is returned, its reference untouched and nothing
    allocated. Only a [Zero_copy] input is a construction [cell] learns
    from. *)
val of_buf :
  cpu:Memmodel.Cpu.t ->
  ?site:string ->
  Adaptive.t ->
  Net.Endpoint.t ->
  Wire.Payload.t ->
  Wire.Payload.t

(** Copies refused by an exhausted arena that fell back to zero-copy
    (domain-local counter; harnesses snapshot deltas). *)
val oom_fallbacks : unit -> int

(** RefSan: shadow ledger + detectors for zero-copy memory safety.

    Mirrors every pinned-buffer lifecycle event (alloc, incref, decref, sub,
    free, DMA post/completion, write), each tagged with a caller-supplied
    site label, and diagnoses:

    - reference leaks at quiesce ({!leaks}),
    - double-free and refcount underflow with alloc/free provenance,
    - use-after-free with full event history ({!history}),
    - the write-after-post race: mutating bytes covered by an in-flight
      scatter-gather hold.

    Enabled by [CF_SANITIZE=1] in the environment or {!set_enabled}. All
    hooks are no-ops unless the caller checks {!is_enabled} first (the
    instrumentation sites in [Mem.Pinned] etc. do). Ledger state is
    domain-local: each worker domain of the parallel experiment harness
    observes exactly the simulations it runs, and {!checkpoint} folds each
    domain's findings into the process-wide totals. Only the enabled
    switch, pool-uid counter, and totals are shared (atomics). *)

(** Stable identity of one allocation (the generation makes slot reuse
    distinguishable). [pool_uid] comes from {!register_pool}. *)
type buf_id = {
  pool_uid : int;
  pool : string;
  size : int;
  slot : int;
  gen : int;
  base : int;
}

val describe : buf_id -> string

type diag_kind =
  | Leak
  | Double_free
  | Underflow
  | Use_after_free
  | Write_hazard
  | Stuck_hold
      (** a DMA-post hold still active at quiesce: the completion was lost
          and nothing reaped it, so the buffer reference is pinned forever *)

val diag_kind_to_string : diag_kind -> string

type diag = {
  d_kind : diag_kind;
  d_site : string;
  d_buffer : string;
  d_message : string;
}

(** {1 Switch} *)

val is_enabled : unit -> bool

val set_enabled : bool -> unit

(** Drop all ledger state (records, holds, diagnostics). Does not change the
    enabled flag. *)
val reset : unit -> unit

(** Allocate a process-unique pool id (called by [Mem.Pinned.Pool.create]). *)
val register_pool : unit -> int

(** {1 Lifecycle hooks}

    [refs] is the buffer's real reference count after the operation; it is
    used to adopt buffers first seen mid-life (sanitizer enabled late). *)

val on_alloc : id:buf_id -> site:string -> unit

val on_incref : id:buf_id -> refs:int -> site:string -> unit

val on_decref : id:buf_id -> refs:int -> site:string -> unit

val on_free : id:buf_id -> site:string -> unit

val on_sub : id:buf_id -> refs:int -> site:string -> unit

val on_root : id:buf_id -> refs:int -> site:string -> unit

val on_unroot : id:buf_id -> refs:int -> site:string -> unit

(** Record a write of [len] bytes at simulated address [addr] and check it
    against active in-flight holds of the same pool; any overlap is a
    write-after-post hazard. *)
val on_write :
  id:buf_id -> refs:int -> addr:int -> len:int -> site:string -> unit

(** Record and classify an access through a stale handle (double-free when
    [op] is [`Release] on a freed buffer, use-after-free otherwise). *)
val stale_access :
  id:buf_id -> op:[ `Read | `Write | `Ref | `Release ] -> site:string -> unit

(** Event history of a buffer, oldest first, human-readable. *)
val history : buf_id -> string list

(** {1 In-flight holds} *)

(** [hold ~id ~refs ~addr ~len ~site] declares [addr, addr+len) in flight
    (posted to a NIC ring, or parked in a TCP retransmission queue) and
    returns a token for {!release_hold}. While active, the range is
    write-protected and the hold excuses one outstanding reference at leak
    check. *)
val hold : id:buf_id -> refs:int -> addr:int -> len:int -> site:string -> int

val release_hold : int -> unit

(** {1 Reports} *)

type leak = {
  l_id : buf_id;
  l_refs : int;
  l_alloc_site : string;
  l_ref_sites : (string * int) list;
}

(** Buffers still referenced now, excluding declared roots and active
    holds — call at engine quiesce. *)
val leaks : unit -> leak list

val diagnostics : unit -> diag list

val count_diags : diag_kind -> int

(** Write-after-post plus stuck-hold diagnostics. *)
val hazard_count : unit -> int

(** Report every still-active hold as a {!Stuck_hold} diagnostic (once per
    hold token across repeated calls); returns how many were newly
    flagged. Leak detection excuses held references — in-flight is not
    leaked — so this is how a lost completion surfaces in the ledger.
    Called by [Report.print_quiesce]. *)
val flag_stuck_holds : unit -> int

val tracked_buffers : unit -> int

val active_holds : unit -> int

(** {1 Cross-run accumulation}

    Harnesses that {!reset} the ledger between experiments (to bound its
    memory) call {!checkpoint} first; the totals below then cover every run
    since startup, including the live ledger. *)

(** Fold the current leak/diagnostic counts into the running totals, then
    {!reset} the ledger. *)
val checkpoint : unit -> unit

val total_leaks : unit -> int

val total_hazards : unit -> int

val total_other_diags : unit -> int

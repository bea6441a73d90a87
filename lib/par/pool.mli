(** Work-stealing domain pool with a deterministic merge.

    [map ~jobs f arr] evaluates [f] over [arr] on up to [jobs] persistent
    worker domains and returns the results in submission order — task
    indices are scattered round-robin across per-worker queues, idle
    workers steal from their neighbours, and each result lands in the slot
    named by its index, so scheduling cannot reorder (or otherwise alter)
    the output. With [jobs = 1], a single-element array, or when called
    from inside a pool task, it degrades to a plain serial [Array.map] on
    the calling domain — byte-identical to never having a pool at all.

    The submitting domain does not execute tasks: its domain-local state
    (RefSan ledger, serializer scratch) is left untouched by a parallel
    run. Workers fold their RefSan ledgers into the process-wide totals
    after every task (see [Sanitizer.Refsan.checkpoint]).

    The first exception raised by a task is re-raised on the submitting
    domain after the batch drains. *)

type t

(** [create ~workers] spawns [workers] persistent domains. Most callers
    want {!map}, which manages a process-wide cached pool. *)
val create : workers:int -> t

val size : t -> int

(** Stop and join every worker. Idempotent only per pool. *)
val shutdown : t -> unit

(** [Domain.recommended_domain_count () - 1], clamped to at least 1 —
    leaves a core for the (parked, but occasionally scheduling) submitter. *)
val recommended_jobs : unit -> int

(** Process-wide default for [?jobs] (initially 1 = serial). *)
val set_default_jobs : int -> unit

val default_jobs : unit -> int

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** Run labeled jobs (see {!Job}); results in submission order. *)
val run_jobs : ?jobs:int -> 'a Job.t list -> 'a list

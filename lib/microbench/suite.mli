(** Bechamel microbenchmarks of the serializer hot paths, shared by
    `bench/main.exe` and the `cornflakes bench` subcommand.

    [run] prints the table and returns the results; ns/op comes from
    Bechamel (always measured serially), minor words/op from a counted
    [Gc.minor_words] loop (parallelized across pool jobs when the
    process-wide [Par.Pool.default_jobs] width is > 1 — each job measures
    one benchmark on a fresh suite instance, so results are identical at
    any width). *)

type result = {
  r_name : string;
  r_tracked : bool;
  mutable ns_per_op : float;
  words_per_op : float;
}

(** [rounds] (default 1) repeats the wall-clock passes and keeps each
    benchmark's minimum ns/op estimate — timing noise is strictly
    additive, so the min is the stable statistic to gate against a
    relative tolerance. Words/op is deterministic and measured once. *)
val run : ?rounds:int -> quick:bool -> seed:int -> unit -> result list

val json_file : string

(** Write [json_file] in the committed-baseline schema. *)
val write_json : result list -> unit

(** Report ns/op deltas vs the baseline and exit 1 if any tracked
    benchmark's minor words/op regressed more than 20%, or its ns/op
    regressed more than 20% after dividing out the median now/base ratio
    across tracked benches (machine-speed normalization). An untracked
    benchmark whose words/op is more than the same tolerance away from
    its baseline, either way, only prints a [stale:] line. *)
val gate_against_baseline : result list -> baseline_path:string -> unit

(** Rendering of RefSan results: per-buffer leak lines, diagnostic lines,
    and the "[N] leaks, [M] hazards" roll-up. *)

(** ["[site Tcp.rtx_queue]"] — the one way a site is rendered, shared by
    RefSan quiesce reports and StatCheck findings so dynamic and static
    reports for the same code grep to each other. *)
val site_label : string -> string

(** Two lines per leaked buffer: what leaked (with alloc provenance) and the
    sites that took the unbalanced references. *)
val leak_lines : unit -> string list

(** Engine-quiesce hook body: prints the summary plus details when anything
    was found (or when [verbose]). *)
val print_quiesce : ?verbose:bool -> unit -> unit

(** No leaks and no diagnostics recorded. *)
val clean : unit -> bool

(** [print_scoped ~label ()] prints a labelled ledger summary (plus any
    leak/diagnostic detail) unconditionally — for CI to grep a specific
    datapath's cleanliness, e.g. the cluster fan-out. *)
val print_scoped : label:string -> unit -> unit

(** Roll-up over every checkpointed run plus the live ledger, e.g.
    ["refsan: 0 leaks, 0 hazards"]. *)
val grand_total_line : unit -> string

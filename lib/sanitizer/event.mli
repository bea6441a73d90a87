(** Ledger events: one per pinned-buffer lifecycle transition, tagged with
    the caller-supplied site label that performed it. *)

type kind =
  | Alloc
  | Incref
  | Decref
  | Sub
  | Free
  | Dma_post  (** buffer entered an in-flight window (NIC ring / rtx queue) *)
  | Dma_complete
  | Write
  | Root  (** declared long-lived (e.g. stored in a KV table) *)
  | Unroot

type t = { seq : int; kind : kind; site : string }

val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** +1 for events that take a reference, -1 for events that release one,
    0 otherwise. *)
val ref_delta : kind -> int

(** The scatter-gather microbenchmark server (§2.4, Figures 3 and 13).

    Requests name a key whose value is a linked list of pinned buffers; the
    server responds with the buffers concatenated, through one of three
    hand-rolled transmit paths:

    - [Raw_sg]: scatter-gather with no memory-safety bookkeeping (the
      hardware upper bound);
    - [Safe_sg]: scatter-gather paying recover_ptr + refcount per entry
      (the "with software overheads" line);
    - [Copy_once]: copy every buffer into the staging frame. *)

type path = Raw_sg | Safe_sg | Copy_once

type t

(** [install rig path ~entries ~entry_size ~n_keys] populates a store of
    [n_keys] linked lists ([entries] x [entry_size] bytes) and installs the
    handler. *)
val install :
  Apps.Rig.t -> path -> entries:int -> entry_size:int -> n_keys:int -> t

(** Reuse the store/pool of an existing instance with a different path. *)
val switch : t -> path -> t

val driver : t -> Util.driver

(** Workload abstraction: how to populate the store and what requests look
    like.

    Working-set sizes are scaled to the simulated 32 MB L3 the same way the
    paper sizes them against its 128 MB L3 (e.g. "about 5x larger than L3"),
    so the cache behaviour that drives the copy/zero-copy tradeoff is
    preserved at reduced memory cost. *)

type op =
  | Get of { keys : string list } (* multiget; single get = one key *)
  | Get_index of { key : string; index : int } (* one slot of a vector value *)
  | Put of { key : string; sizes : int list } (* replace value, new shape *)

type t = {
  name : string;
  store_capacity : int;
  pool_classes : (int * int) list; (* value pool layout: (size, capacity) *)
  populate : Kvstore.Store.t -> pool:Mem.Pinned.Pool.t -> unit;
  next : Sim.Rng.t -> op;
  (* Mean response payload bytes (used to size experiment windows). *)
  mean_response_bytes : float;
}

(** [alloc_value pool ~repr sizes] builds a store value of the given shape
    with deterministic filler contents. *)
val alloc_value :
  Mem.Pinned.Pool.t ->
  repr:[ `Single | `Linked | `Vector ] ->
  int list ->
  Kvstore.Store.value

(** [padded_key ~prefix ~width rank] is
    [Printf.sprintf "%s%0*d" prefix width rank] — the zero-padded key every
    workload names its ranks with — written digit by digit into one
    string. *)
val padded_key : prefix:string -> width:int -> int -> string

(** [filler n] is a deterministic printable string of length [n]. *)
val filler : int -> string

(** Round a byte size up to the pool's power-of-two class (min 64). *)
val class_of : int -> int

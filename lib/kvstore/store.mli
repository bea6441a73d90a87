(** The custom key-value store from the paper's evaluation (§6.1.2).

    Keys are byte strings; values are single pinned buffers, linked lists
    of pinned buffers, or vectors of pinned buffers. The store owns one
    reference on every buffer it holds; [put] swaps pointers and releases
    the old value (never updates in place), which is what makes the store
    compatible with Cornflakes' zero-copy safety model (§4.1).

    Keys are read in place: every operation takes the key as a window
    [(data, off, len)] — typically straight out of a validated receive
    buffer — hashes it once, and probes an open-addressing index (linear
    probing, load at most 1/2, backward-shift deletion) whose slots keep
    each key's full hash, so a probe compares bytes only on a hash match.
    Only [put] of a new key copies the key, into the index. Entries are
    numbered densely in insertion order.

    Cost model: the bucket array and entry records live in the simulated
    address space, so a lookup pays a hash, a bucket-line access, an
    entry-line access and a key compare over [min 48 len] bytes of the
    record; a miss pays the hash and the bucket line only, which is how the
    "working set larger than L3" experiments get their cache pressure. The
    simulated bucket is [hash land (buckets - 1)], where [hash] equals
    OCaml's generic hash of the key string. The host-side index is not
    modelled: its probes cost no simulated time. *)

type value =
  | Single of Mem.Pinned.Buf.t
  | Linked of Mem.Pinned.Buf.t list
  | Vector of Mem.Pinned.Buf.t array

type t

(** [create space ~name ~capacity] sizes the bucket array and entry-record
    region for about [capacity] keys; the index holds [capacity] keys
    before it first grows. *)
val create : Mem.Addr_space.t -> name:string -> capacity:int -> t

val size : t -> int

(** [find ~cpu t data ~off ~len] is the entry index of the key
    [data.[off .. off+len-1]], or [-1] on a miss. It charges the lookup to
    [cpu] (a hit also sweeps a linked or vector value's node descriptors)
    and allocates nothing. The index is valid until the next [remove] on
    [t]. *)
val find : cpu:Memmodel.Cpu.t -> t -> Bytes.t -> off:int -> len:int -> int

(** [value t i] is the live value of entry [i] (from {!find}); the store
    retains ownership (callers wanting to keep buffers across a later [put]
    must take their own reference, e.g. via CFPtr construction). *)
val value : t -> int -> value

(** [put ~cpu t data ~off ~len value] installs [value] under the key
    window (taking ownership of the caller's references) and releases any
    previous value. The key bytes are copied only when the key is new. *)
val put :
  cpu:Memmodel.Cpu.t -> t -> Bytes.t -> off:int -> len:int -> value -> unit

(** [remove ~cpu t data ~off ~len] deletes the entry, if any, and releases
    its buffers. *)
val remove : cpu:Memmodel.Cpu.t -> t -> Bytes.t -> off:int -> len:int -> unit

(** [hash data ~off ~len] is the index's key hash: OCaml's generic hash of
    the window's bytes as a string, computed in place. *)
val hash : Bytes.t -> off:int -> len:int -> int

(** {2 Whole-string keys} For population and for callers outside the
    request path. *)

(** [put_string ~cpu t ~key value] is {!put} over all of [key]. *)
val put_string : cpu:Memmodel.Cpu.t -> t -> key:string -> value -> unit

(** [get ?cpu t ~key] is {!find} then {!value} over all of [key], charged
    to [cpu] (default {!Memmodel.Cpu.none}). *)
val get : ?cpu:Memmodel.Cpu.t -> t -> key:string -> value option

(** Buffers of a value, in order (list/vector flattened). *)
val buffers : value -> Mem.Pinned.Buf.t list

(** Total payload bytes of a value. *)
val value_len : value -> int

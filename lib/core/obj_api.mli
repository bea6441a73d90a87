(** The [CornflakesObj] interface (paper Listing 1).

    The networking stack finishes serialization through these functions
    rather than an explicit [serialize] call: it asks the object for its
    length, has it write the object header (and copied fields) into the
    frame under construction, and walks the zero-copy entries to post them
    directly on the ring. {!Send.send_object} is the co-designed fast path
    built on exactly these operations; this module exposes them individually
    for stacks that are not co-designed (and for the segmentation support of
    §3.2.3: both iterators take a byte range so a stack can emit an object
    one frame at a time — see {!Frag}).

    Ranges address the {e object layout}: [0 .. object_len) covers the
    header+copied region followed by the zero-copy region, in wire order. *)

(** [object_len msg] — total serialized size in bytes. *)
val object_len : Wire.Dyn.t -> int

(** [num_copy_bytes msg] — size of the header+copied region. *)
val num_copy_bytes : Wire.Dyn.t -> int

(** [num_zero_copy_entries msg] — how many gather entries the zero-copy
    region contributes. *)
val num_zero_copy_entries : Wire.Dyn.t -> int

(** [write_object_header msg w] emits the header+copied region into
    [w] (which must offer [num_copy_bytes] of space). *)
val write_object_header : Wire.Dyn.t -> Wire.Cursor.Writer.t -> unit

(** [iterate_over_copy_entries ~cpu msg ~start ~stop f] — calls [f] with
    views of the header+copied region restricted to object-layout range
    [start, stop); requires a scratch buffer because the region is
    materialised on demand. *)
val iterate_over_copy_entries :
  cpu:Memmodel.Cpu.t ->
  Wire.Dyn.t ->
  scratch:Mem.View.t ->
  start:int ->
  stop:int ->
  (Mem.View.t -> unit) ->
  unit

(** [iterate_over_zero_copy_entries msg ~start ~stop f] — calls [f] with
    each zero-copy buffer slice that overlaps object-layout range
    [start, stop), in wire order. Slices share the underlying refcounts
    (no extra references are taken). *)
val iterate_over_zero_copy_entries :
  Wire.Dyn.t -> start:int -> stop:int -> (Mem.Pinned.Buf.t -> unit) -> unit

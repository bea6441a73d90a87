(** Set-associative cache level with exact LRU replacement.

    Tags are simulated line addresses (byte address / line size, a power
    of two). A [Hierarchy.h] composes three levels (inclusive fill) and
    classifies each access by the level it hits, which the cost model
    prices.

    Each set keeps its ways in recency order, most recent first. A hit at
    way [k] moves ways [0..k-1] down by one and writes the line at way 0; a
    miss moves every way down by one, dropping the last way, and writes the
    line at way 0. The dropped way is the least recently used line, or an
    invalid way while the set is not yet full: valid lines always form a
    prefix of the set. This is the same replacement as keeping a unique
    LRU stamp per way and evicting the smallest, with invalid ways at stamp
    0: after every access the resident lines are the same, so every
    [access] and [probe] result is too. A repeat access to the newest line
    hits at way 0 and moves nothing.

    A line's set is [line land (sets - 1)] when the set count is a power of
    two, as in every level of [Params.default], and
    [(line land max_int) mod sets] otherwise; [create] picks one from the
    geometry. *)

type level = L1 | L2 | L3 | Dram

type t

(** [create g] has [g.size_bytes / g.line_bytes / g.ways] sets. Raises
    [Invalid_argument] unless [g.ways > 0], [g.line_bytes] is a power of
    two and [g.size_bytes >= g.ways * g.line_bytes]. *)
val create : Params.cache_geometry -> t

(** [access t ~line] probes (and on miss, fills) the cache for a line
    address. Returns [true] on hit. Fills evict LRU within the set. *)
val access : t -> line:int -> bool

(** [probe t ~line] checks residency without updating LRU or filling. *)
val probe : t -> line:int -> bool

module Hierarchy : sig
  type h

  (** [create params] builds a private L1/L2 over a private L3. Raises
      [Invalid_argument] if the three levels' line sizes differ. *)
  val create : Params.t -> h

  (** [create_shared params ~l3] builds a private L1/L2 over a shared L3
      (multicore experiments). Raises [Invalid_argument] if [l3]'s line
      size differs from [params]' L1 or L2. *)
  val create_shared : Params.t -> l3:t -> h

  (** log2 of the cache-line size shared by the three levels, for callers
      that walk a byte range line by line themselves: the line of a
      non-negative address is [addr lsr line_shift h]. *)
  val line_shift : h -> int

  (** [access h ~line] touches line number [line] (byte address lsr
      [line_shift h]) and returns the level it hit. *)
  val access : h -> line:int -> level

  (** [access_line h ~addr] touches the single line containing [addr] and
      returns the level it hit. *)
  val access_line : h -> addr:int -> level

  (** [install_l3 h ~addr ~len] models DDIO: device DMA deposits the lines
      in the last-level cache (no CPU cost, no L1/L2 effect). *)
  val install_l3 : h -> addr:int -> len:int -> unit
end

type level = L1 | L2 | L3 | Dram

type t = {
  sets : int;
  ways : int;
  mask : int; (* sets - 1 when sets is a power of two, else -1 *)
  line_bytes : int;
  (* sets * ways; each set's ways in recency order, most recent first.
     Valid lines form a prefix of the set, invalid ways the rest. *)
  tags : int array;
}

let invalid = -1

let create (g : Params.cache_geometry) =
  if
    g.ways <= 0 || g.line_bytes <= 0
    || g.line_bytes land (g.line_bytes - 1) <> 0
    || g.size_bytes < g.ways * g.line_bytes
  then
    invalid_arg
      (Printf.sprintf "Cache.create: %d B in %d ways of %d B lines" g.size_bytes
         g.ways g.line_bytes);
  let sets = g.size_bytes / g.line_bytes / g.ways in
  {
    sets;
    ways = g.ways;
    mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    line_bytes = g.line_bytes;
    tags = Array.make (sets * g.ways) invalid;
  }

(* Index of way 0 of [line]'s set. For a power-of-two set count the mask
   selects the same set as the [mod]. *)
let[@inline] set_base t line =
  (if t.mask >= 0 then line land t.mask else (line land max_int) mod t.sets)
  * t.ways

(* Shifts the set down by one from way [i]: writes [prev], way i-1's old
   line, into way [i] and carries way [i]'s old line on to the next way.
   Stops after overwriting [line] (a hit) or an invalid way (a miss in a
   set not yet full), or after way [stop - 1] (a miss that evicts). Returns
   the line overwritten last: [line], [invalid] or the evicted LRU line. *)
let rec shift tags line prev i stop =
  if i = stop then prev
  else
    let cur = tags.(i) in
    tags.(i) <- prev;
    if cur = line || cur = invalid then cur else shift tags line cur (i + 1) stop

let access t ~line =
  let tags = t.tags in
  let base = set_base t line in
  let first = tags.(base) in
  first = line
  || begin
       tags.(base) <- line;
       first <> invalid && shift tags line first (base + 1) (base + t.ways) = line
     end
[@@alloc_free]

let rec resident tags line i stop =
  i < stop
  &&
  let cur = tags.(i) in
  cur = line || (cur <> invalid && resident tags line (i + 1) stop)

let probe t ~line =
  let base = set_base t line in
  resident t.tags line base (base + t.ways)

module Hierarchy = struct
  (* [line_shift] is log2 of the shared line size: an address's line is
     [addr lsr line_shift], the same as [addr / line_bytes] for the
     non-negative addresses of the simulated address space. *)
  type h = { l1 : t; l2 : t; l3 : t; line_shift : int }

  let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1)

  (* These lets are not recursive: the [create] and [access] in their
     bodies are the single-level ones above. *)
  let create_shared (p : Params.t) ~(l3 : t) =
    let line_bytes = p.l1.line_bytes in
    if p.l2.line_bytes <> line_bytes || l3.line_bytes <> line_bytes then
      invalid_arg
        (Printf.sprintf "Cache.Hierarchy: line sizes differ (%d/%d/%d B)"
           line_bytes p.l2.line_bytes l3.line_bytes);
    { l1 = create p.l1; l2 = create p.l2; l3; line_shift = log2 line_bytes }

  let create (p : Params.t) = create_shared p ~l3:(create p.l3)

  let line_shift h = h.line_shift

  (* DDIO: device DMA installs lines into the LLC without touching the
     private levels and without costing CPU cycles. *)
  let install_l3 h ~addr ~len =
    if len > 0 then begin
      let first = addr lsr h.line_shift in
      let last = (addr + len - 1) lsr h.line_shift in
      for line = first to last do
        ignore (access h.l3 ~line)
      done
    end

  let access h ~line =
    if access h.l1 ~line then L1
    else if access h.l2 ~line then L2
    else if access h.l3 ~line then L3
    else Dram
  [@@alloc_free]

  let access_line h ~addr = access h ~line:(addr lsr h.line_shift)
end

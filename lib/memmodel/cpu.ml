type category = Rx | Deser | App | Alloc | Copy | Safety | Tx | Other

let category_index = function
  | Rx -> 0
  | Deser -> 1
  | App -> 2
  | Alloc -> 3
  | Copy -> 4
  | Safety -> 5
  | Tx -> 6
  | Other -> 7

let all_categories = [ Rx; Deser; App; Alloc; Copy; Safety; Tx; Other ]

let category_label = function
  | Rx -> "rx"
  | Deser -> "deserialize"
  | App -> "app/get"
  | Alloc -> "alloc"
  | Copy -> "copy"
  | Safety -> "safety"
  | Tx -> "tx/post"
  | Other -> "other"

type op =
  | Per_call
  | Arena_alloc
  | Slab_alloc
  | Hash_op
  | Refcount_op
  | Range_lookup
  | Rx_packet
  | Completion_per_sge
  | Vec_alloc

let op_index = function
  | Per_call -> 0
  | Arena_alloc -> 1
  | Slab_alloc -> 2
  | Hash_op -> 3
  | Refcount_op -> 4
  | Range_lookup -> 5
  | Rx_packet -> 6
  | Completion_per_sge -> 7
  | Vec_alloc -> 8

let op_costs (p : Params.t) =
  [|
    p.cost_per_call;
    p.cost_arena_alloc;
    p.cost_slab_alloc;
    p.cost_hash_op;
    p.cost_refcount_op;
    p.cost_range_lookup;
    p.cost_rx_packet;
    p.cost_completion_per_sge;
    p.cost_vec_alloc;
  |]

type t = {
  params : Params.t;
  hier : Cache.Hierarchy.h;
  (* Cycle accumulators: slots 0-7 per category, slot 8 the running total.
     A bare float array keeps every charge an unboxed store — a mutable
     float field in this (mixed) record would allocate a boxed float per
     assignment, and the meter is charged several times per simulated
     request, so that boxing dominated the allocation profile of every
     metered loop. *)
  acc : float array;
  costs : float array; (* [op_costs params], indexed by [op_index] *)
  (* False only for [none]: every operation returns before touching [acc]
     or [hier], so the one shared value is never written. *)
  metered : bool;
}

let total_index = 8

let create ?shared_l3 (params : Params.t) =
  let hier =
    match shared_l3 with
    | Some l3 -> Cache.Hierarchy.create_shared params ~l3
    | None -> Cache.Hierarchy.create params
  in
  let acc = Array.make 9 0.0 in
  { params; hier; acc; costs = op_costs params; metered = true }

(* The unmetered meter's hierarchy is never probed: one line per level
   stands in for the default geometry's tag arrays. *)
let none =
  let line = { Params.size_bytes = 64; ways = 1; line_bytes = 64 } in
  let params = Params.default in
  let tiny = { params with l1 = line; l2 = line; l3 = line } in
  {
    params;
    hier = Cache.Hierarchy.create tiny;
    acc = Array.make 9 0.0;
    costs = op_costs params;
    metered = false;
  }

let params t = t.params

let metered t = t.metered

(* Inlined into every charge below, so the cycle count stays an unboxed
   float from its computation to the store. *)
let[@inline always] add t i c =
  t.acc.(i) <- t.acc.(i) +. c;
  t.acc.(total_index) <- t.acc.(total_index) +. c

let charge t cat cycles = if t.metered then add t (category_index cat) cycles

(* The cost is read from [costs] inside the meter: no float crosses the
   call boundary. *)
let charge_op t cat op =
  if t.metered then add t (category_index cat) t.costs.(op_index op)
[@@alloc_free]

let charge_ops t cat op n =
  if t.metered then
    add t (category_index cat) (float_of_int n *. t.costs.(op_index op))
[@@alloc_free]

let charge_post t ~nsge ~batch =
  if t.metered then begin
    let p = t.params in
    add t (category_index Tx)
      ((float_of_int nsge *. p.cost_sg_post)
      +. (p.cost_doorbell /. float_of_int batch)
      +. p.cost_tx_packet)
  end
[@@alloc_free]

let stream t cat ~addr ~len =
  if t.metered && len > 0 then begin
    let p = t.params in
    let i = category_index cat in
    let shift = Cache.Hierarchy.line_shift t.hier in
    let first = addr lsr shift and last = (addr + len - 1) lsr shift in
    (* Accumulate straight into the unboxed slots: no per-level counters,
       no tuple, no boxed intermediate — this loop runs for every metered
       byte range in the simulation. *)
    for line = first to last do
      add t i
        (match Cache.Hierarchy.access t.hier ~line with
        | Cache.L1 -> p.stream_l1
        | Cache.L2 -> p.stream_l2
        | Cache.L3 -> p.stream_l3
        | Cache.Dram -> p.stream_dram)
    done
  end
[@@alloc_free]

let latency_access t cat ~addr =
  if t.metered then begin
    let p = t.params in
    add t (category_index cat)
      (match Cache.Hierarchy.access_line t.hier ~addr with
      | Cache.L1 -> p.lat_l1
      | Cache.L2 -> p.lat_l2
      | Cache.L3 -> p.lat_l3
      | Cache.Dram -> p.lat_dram)
  end
[@@alloc_free]

let cycles t = t.acc.(total_index)

let ns t = Params.cycles_to_ns t.params t.acc.(total_index)

let breakdown t =
  List.map (fun c -> (c, t.acc.(category_index c))) all_categories

let reset_breakdown t = if t.metered then Array.fill t.acc 0 total_index 0.0

let install_dma t ~addr ~len =
  if t.metered then Cache.Hierarchy.install_l3 t.hier ~addr ~len

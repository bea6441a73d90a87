type t = {
  space : Addr_space.t;
  mutable pools : Pinned.Pool.t list;
  table_addr : int; (* hot line modelling the range table *)
}

let create space =
  { space; pools = []; table_addr = Addr_space.reserve space ~bytes:64 }

let space t = t.space

let register t pool = t.pools <- pool :: t.pools

let pools t = t.pools

(* The pool whose range holds [addr]; [Not_found] (raised without a
   backtrace) when none does. A plain walk: no closure, no option. *)
let rec pool_of pools ~addr =
  match pools with
  | [] -> raise_notrace Not_found
  | p :: rest -> if Pinned.Pool.contains p ~addr then p else pool_of rest ~addr

let is_pinned t ~addr =
  match pool_of t.pools ~addr with _ -> true | exception Not_found -> false

let recover_exn ~cpu t ~addr ~len =
  (* Range-table lookup: arithmetic plus one (hot) table line. *)
  Memmodel.Cpu.charge_op cpu Memmodel.Cpu.Safety Memmodel.Cpu.Range_lookup;
  Memmodel.Cpu.latency_access cpu Memmodel.Cpu.Safety ~addr:t.table_addr;
  match pool_of t.pools ~addr with
  | exception Not_found -> raise_notrace Pinned.Unpinned
  | pool ->
      Pinned.Buf.recover_exn ~cpu ~site:"Registry.recover_ptr" pool ~addr ~len

let recover_ptr ~cpu t ~addr ~len =
  match recover_exn ~cpu t ~addr ~len with
  | buf -> Some buf
  | exception Pinned.Unpinned -> None

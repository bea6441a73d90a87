type op =
  | Get of { keys : string list }
  | Get_index of { key : string; index : int }
  | Put of { key : string; sizes : int list }

type t = {
  name : string;
  store_capacity : int;
  pool_classes : (int * int) list;
  populate : Kvstore.Store.t -> pool:Mem.Pinned.Pool.t -> unit;
  next : Sim.Rng.t -> op;
  mean_response_bytes : float;
}

let pattern =
  let b = Buffer.create 256 in
  for i = 0 to 255 do
    Buffer.add_char b (Char.chr (32 + (i mod 95)))
  done;
  Buffer.contents b

(* Decimal digits of [n <= 0] (negative arithmetic covers [min_int]). *)
let rec digits_neg n = if n > -10 then 1 else 1 + digits_neg (n / 10)

let rec put_digits b n pos =
  Bytes.unsafe_set b pos (Char.unsafe_chr (48 - (n mod 10)));
  if n <= -10 then put_digits b (n / 10) (pos - 1)

let padded_key ~prefix ~width rank =
  let neg = if rank < 0 then rank else -rank in
  let sign = if rank < 0 then 1 else 0 in
  let body = max width (digits_neg neg + sign) in
  let plen = String.length prefix in
  let b = Bytes.make (plen + body) '0' in
  Bytes.blit_string prefix 0 b 0 plen;
  if rank < 0 then Bytes.set b plen '-';
  put_digits b neg (plen + body - 1);
  Bytes.unsafe_to_string b

let filler n =
  if n <= 0 then ""
  else begin
    let b = Bytes.create n in
    let plen = String.length pattern in
    let rec fill off =
      if off < n then begin
        let chunk = min plen (n - off) in
        Bytes.blit_string pattern 0 b off chunk;
        fill (off + chunk)
      end
    in
    fill 0;
    Bytes.unsafe_to_string b
  end

let class_of n =
  let rec go c = if c >= n then c else go (c * 2) in
  go 64

(* Preloads run off-core, unmetered. *)
let alloc_buf pool n =
  let cpu = Memmodel.Cpu.none in
  let buf =
    Mem.Pinned.Buf.alloc ~cpu ~site:"Workload.populate" pool ~len:(max 1 n)
  in
  Mem.Pinned.Buf.fill ~cpu ~site:"Workload.populate" buf (filler (max 1 n));
  buf

let alloc_value pool ~repr sizes =
  match (repr, sizes) with
  | `Single, [ n ] -> Kvstore.Store.Single (alloc_buf pool n)
  | `Single, _ -> invalid_arg "Spec.alloc_value: Single needs one size"
  | `Linked, sizes -> Kvstore.Store.Linked (List.map (alloc_buf pool) sizes)
  | `Vector, sizes ->
      Kvstore.Store.Vector (Array.of_list (List.map (alloc_buf pool) sizes))

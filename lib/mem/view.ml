type t = { addr : int; data : Bytes.t; off : int; len : int }

let make ~addr ~data ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "View.make: window out of bounds";
  { addr; data; off; len }

let sub t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then
    invalid_arg "View.sub: window out of bounds";
  { addr = t.addr + off; data = t.data; off = t.off + off; len }

let to_string t = Bytes.sub_string t.data t.off t.len

let of_string space s =
  let data = Bytes.of_string s in
  let addr = Addr_space.reserve space ~bytes:(Bytes.length data) in
  { addr; data; off = 0; len = Bytes.length data }

let blit t ~dst ~dst_off = Bytes.blit t.data t.off dst dst_off t.len

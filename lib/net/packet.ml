(* Header field offsets, shared by the writer and the readers so the layout
   is stated exactly once. *)
module Off = struct
  let header_len = 42

  let ethertype = 12 (* 0x0800 = IPv4 *)

  let ip_version = 14 (* version/IHL byte *)

  let src = 26 (* IPv4 source address slot *)

  let dst = 30 (* IPv4 destination address slot *)
end

let header_len = Off.header_len

let max_payload = 9000

let set_u32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let get_u32 b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let write_header buf ~off ~src ~dst =
  if off + header_len > Bytes.length buf then
    invalid_arg "Packet.write_header: buffer too small";
  Bytes.fill buf off header_len '\000';
  (* Ethertype 0x0800, IPv4 version/IHL, UDP stubs — enough to look like a
     frame in hexdumps; ids carry the routing information. *)
  Bytes.set buf (off + Off.ethertype) '\x08';
  Bytes.set buf (off + Off.ip_version) '\x45';
  set_u32 buf (off + Off.src) src;
  set_u32 buf (off + Off.dst) dst

(* [len] is the frame length, not the buffer capacity — pooled egress
   frames ride in rounded-up buffers. *)
let header_field b ~len off =
  if len < header_len then invalid_arg "Packet: truncated header";
  get_u32 b off

let src_of_bytes b ~len = header_field b ~len Off.src

let dst_of_bytes b ~len = header_field b ~len Off.dst

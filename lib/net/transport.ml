(* First-class transport handle; see transport.mli. The record itself is
   defined in Endpoint (mutually recursive with the endpoint type, so the
   UDP implementation can be cached per endpoint); this module re-exports
   it under the natural name and provides the call-side API. *)

type t = Endpoint.transport = {
  tr_name : string;
  tr_ep : Endpoint.t;
  tr_headroom : int;
  tr_max_msg_len : int;
  tr_connect : peer:int -> unit;
  tr_send_inline :
    dst:int -> segments:Mem.Pinned.Buf.t list -> unit;
  tr_send_extra :
    dst:int -> segments:Mem.Pinned.Buf.t list -> unit;
  tr_send_inline_zc :
    dst:int ->
    head:Mem.Pinned.Buf.t ->
    zc:Mem.Pinned.Buf.t array ->
    zc_n:int ->
    unit;
  tr_send_extra_zc :
    dst:int ->
    head:Mem.Pinned.Buf.t ->
    zc:Mem.Pinned.Buf.t array ->
    zc_n:int ->
    unit;
  tr_send_string : dst:int -> string -> unit;
  tr_set_rx : (src:int -> Mem.Pinned.Buf.t -> unit) -> unit;
}

let udp = Endpoint.transport

let make ~name ~ep ~headroom ~max_msg_len ~connect ~send_inline ~send_extra
    ~send_inline_zc ~send_extra_zc ~send_string ~set_rx =
  {
    tr_name = name;
    tr_ep = ep;
    tr_headroom = headroom;
    tr_max_msg_len = max_msg_len;
    tr_connect = connect;
    tr_send_inline = send_inline;
    tr_send_extra = send_extra;
    tr_send_inline_zc = send_inline_zc;
    tr_send_extra_zc = send_extra_zc;
    tr_send_string = send_string;
    tr_set_rx = set_rx;
  }

let name t = t.tr_name

let endpoint t = t.tr_ep

let arena t = Endpoint.arena t.tr_ep

let cpu t = Endpoint.cpu t.tr_ep

let headroom t = t.tr_headroom

let max_msg_len t = t.tr_max_msg_len

let connect t ~peer = t.tr_connect ~peer

let send_inline t ~dst ~segments = t.tr_send_inline ~dst ~segments

let send_extra t ~dst ~segments = t.tr_send_extra ~dst ~segments

let send_inline_zc t ~dst ~head ~zc ~zc_n =
  t.tr_send_inline_zc ~dst ~head ~zc ~zc_n
[@@alloc_free]

let send_extra_zc t ~dst ~head ~zc ~zc_n =
  t.tr_send_extra_zc ~dst ~head ~zc ~zc_n
[@@alloc_free]

let send_string t ~dst s = t.tr_send_string ~dst s

let set_rx t f = t.tr_set_rx f

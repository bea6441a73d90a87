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
    dst:int ->
    head:Mem.Pinned.Buf.t ->
    zc:Mem.Pinned.Buf.t array ->
    zc_n:int ->
    unit;
  tr_send_extra :
    dst:int ->
    head:Mem.Pinned.Buf.t ->
    zc:Mem.Pinned.Buf.t array ->
    zc_n:int ->
    unit;
  tr_send_string : dst:int -> string -> unit;
  tr_set_rx : (src:int -> Mem.Pinned.Buf.t -> unit) -> unit;
}

let name t = t.tr_name

let endpoint t = t.tr_ep

let arena t = Endpoint.arena t.tr_ep

let cpu t = Endpoint.cpu t.tr_ep

let headroom t = t.tr_headroom

let max_msg_len t = t.tr_max_msg_len

let connect t ~peer = t.tr_connect ~peer

let send_inline t ~dst ~head ~zc ~zc_n = t.tr_send_inline ~dst ~head ~zc ~zc_n
[@@alloc_free]

let send_extra t ~dst ~head ~zc ~zc_n = t.tr_send_extra ~dst ~head ~zc ~zc_n
[@@alloc_free]

let send_string t ~dst s = t.tr_send_string ~dst s

let set_rx t f = t.tr_set_rx f

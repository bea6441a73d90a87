(* StatCheck fixture: heap allocation inside an [@@alloc_free] fast path.
   NOT part of the build — parsed by the analyzer only.

   The send path builds a (header, payload) pair and a per-send zero-copy
   array — three heap blocks per packet on a path annotated as
   allocation-free. Expected: SC-ALLOC (x3). *)

let send_fast ep ~dst ~head ~payload =
  let framed = (head, payload) in
  let zc = [| payload |] in
  Endpoint.send_inline ep ~dst ~head ~zc ~zc_n:1;
  ignore framed;
  Printf.sprintf "sent %d" (Mem.Pinned.Buf.len head)
[@@alloc_free]

(* The kv protocol's stable alias surface. The schema itself lives in
   [kv.proto], compiled at build time into the generated [Kv_rpc] module;
   this module re-exports the descriptors, the op-tag words and the
   in-place field indices so existing call sites keep one name for each.

   The op tags are the schema-declared method ids of the [Kv] service —
   one source of truth for the store, the sharded cluster and the load
   drivers. *)

let schema = Kv_rpc.schema

let req = Kv_rpc.Req.desc

let resp = Kv_rpc.Resp.desc

(* Method-id words (the request envelope's [op] field). *)
let op_get = Kv_rpc.Kv_service.id_get

let op_put = Kv_rpc.Kv_service.id_put

let op_get_index = Kv_rpc.Kv_service.id_get_index

(* Field indices for the in-place [Wire.Reader] accessors (schema order). *)
let req_id = Kv_rpc.Kv_service.req_id

let req_op = Kv_rpc.Kv_service.req_op

let req_keys = Kv_rpc.Req.idx_keys

let req_index = Kv_rpc.Req.idx_index

let req_vals = Kv_rpc.Req.idx_vals

let resp_id = Kv_rpc.Kv_service.resp_id

let resp_vals = Kv_rpc.Resp.idx_vals

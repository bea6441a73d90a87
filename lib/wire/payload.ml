type t =
  | Copied of Mem.View.t
  | Zero_copy of Mem.Pinned.Buf.t
  | Literal of Mem.View.t

let empty = Literal (Mem.View.make ~addr:0 ~data:Bytes.empty ~off:0 ~len:0)

let len = function
  | Copied v | Literal v -> v.Mem.View.len
  | Zero_copy b -> Mem.Pinned.Buf.len b

let view = function
  | Copied v | Literal v -> v
  | Zero_copy b -> Mem.Pinned.Buf.view b

let to_string t = Mem.View.to_string (view t)

let of_string space s = Literal (Mem.View.of_string space s)

let release ?cpu = function
  | Copied _ | Literal _ -> ()
  | Zero_copy b -> Mem.Pinned.Buf.decr_ref ?cpu ~site:"Payload.release" b

let is_zero_copy = function Zero_copy _ -> true | Copied _ | Literal _ -> false

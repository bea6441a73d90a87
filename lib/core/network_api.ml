type t = {
  ep : Net.Endpoint.t;
  config : Config.t;
  data_pool : Mem.Pinned.Pool.t;
  inbox : Mem.Pinned.Buf.t Queue.t;
}

let attach ?(config = Config.default) ep ~data_pool =
  let t = { ep; config; data_pool; inbox = Queue.create () } in
  Net.Endpoint.set_rx ep (fun ~src:_ buf -> Queue.add buf t.inbox);
  t

let cpu t = Net.Endpoint.cpu t.ep

let alloc t ~size = Mem.Pinned.Buf.alloc ~cpu:(cpu t) t.data_pool ~len:size

let recv_packet t = Queue.take_opt t.inbox

let recover_ptr t (view : Mem.View.t) =
  Mem.Registry.recover_ptr ~cpu:(cpu t)
    (Net.Endpoint.registry t.ep)
    ~addr:view.Mem.View.addr ~len:view.Mem.View.len

let send_object t ~dst msg = Send.send_object t.config t.ep ~dst msg

let cf_ptr t view = Cf_ptr.make ~cpu:(cpu t) t.config t.ep view

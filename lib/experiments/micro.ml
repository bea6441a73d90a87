type path = Raw_sg | Safe_sg | Copy_once

let path_name = function
  | Raw_sg -> "raw-scatter-gather"
  | Safe_sg -> "scatter-gather"
  | Copy_once -> "copy"

type t = {
  rig : Apps.Rig.t;
  path : path;
  store : Kvstore.Store.t;
  workload : Workload.Spec.t;
  rng : Sim.Rng.t;
}

let handler t ~src buf =
  let cpu = t.rig.Apps.Rig.cpu in
  let tr = t.rig.Apps.Rig.server_tr in
  match Baselines.Manual.parse ~cpu (Mem.Pinned.Buf.view buf) with
  | [ keyv ] ->
      let entry =
        Kvstore.Store.find ~cpu t.store keyv.Mem.View.data
          ~off:keyv.Mem.View.off ~len:keyv.Mem.View.len
      in
      (if entry < 0 then
         (* Echo an empty frame so FIFO matching stays aligned. *)
         Baselines.Manual.send_one_copy tr ~dst:src []
       else
         let views =
           List.map Mem.Pinned.Buf.view
             (Kvstore.Store.buffers (Kvstore.Store.value t.store entry))
         in
         match t.path with
         | Raw_sg ->
             Baselines.Manual.send_zero_copy ~safety:`Raw tr ~dst:src views
         | Safe_sg ->
             Baselines.Manual.send_zero_copy ~safety:`Safe tr ~dst:src views
         | Copy_once -> Baselines.Manual.send_one_copy tr ~dst:src views);
      Mem.Pinned.Buf.decr_ref ~cpu buf
  | _ | (exception Invalid_argument _) -> Mem.Pinned.Buf.decr_ref ~cpu buf

let install_with rig path ~store ~workload =
  let t =
    { rig; path; store; workload; rng = Sim.Rng.split rig.Apps.Rig.rng }
  in
  Loadgen.Server.set_handler rig.Apps.Rig.server (fun ~src buf ->
      handler t ~src buf);
  t

let install rig path ~entries ~entry_size ~n_keys =
  (* The microbenchmark addresses buffers uniformly (paper section 2.4), so
     every access misses once the array exceeds L3. *)
  let workload = Workload.Ycsb.make ~n_keys ~zipf_s:0.001 ~entries ~entry_size () in
  let pool =
    Apps.Rig.data_pool rig ~name:"micro"
      ~classes:workload.Workload.Spec.pool_classes
  in
  let store =
    Kvstore.Store.create rig.Apps.Rig.space ~name:"micro" ~capacity:n_keys
  in
  workload.Workload.Spec.populate store ~pool;
  install_with rig path ~store ~workload

let switch t path = install_with t.rig path ~store:t.store ~workload:t.workload

let driver t =
  let send client ~dst ~id =
    ignore id;
    match t.workload.Workload.Spec.next t.rng with
    | Workload.Spec.Get { keys = [ key ] } ->
        (* Manual framing: a single field holding the key. *)
        let b = Buffer.create 64 in
        let u32 v =
          Buffer.add_char b (Char.chr (v land 0xff));
          Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
          Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
          Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))
        in
        u32 1;
        u32 (String.length key);
        Buffer.add_string b key;
        Net.Transport.send_string client ~dst (Buffer.contents b)
    | _ -> ()
  in
  { Util.send; parse_id = None }

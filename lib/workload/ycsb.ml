let key_of rank = Spec.padded_key ~prefix:"user" ~width:26 rank

let make ?(n_keys = 65536) ?(zipf_s = 0.99) ?(multiget = 1) ~entries
    ~entry_size () =
  assert (entries >= 1 && entry_size >= 1 && multiget >= 1);
  let zipf = Sim.Dist.Zipf.create ~n:n_keys ~s:zipf_s in
  let cls = Spec.class_of entry_size in
  let sizes = List.init entries (fun _ -> entry_size) in
  {
    Spec.name =
      Printf.sprintf "ycsb-%dx%d%s" entries entry_size
        (if multiget > 1 then Printf.sprintf "-mget%d" multiget else "");
    store_capacity = n_keys;
    pool_classes = [ (cls, (n_keys * entries) + 64) ];
    populate =
      (fun store ~pool ->
        for rank = 1 to n_keys do
          Kvstore.Store.put store ~key:(key_of rank)
            (Spec.alloc_value pool ~repr:`Linked sizes)
        done);
    next =
      (fun rng ->
        let keys =
          List.init multiget (fun _ -> key_of (Sim.Dist.Zipf.sample zipf rng))
        in
        Spec.Get { keys });
    mean_response_bytes = float_of_int (entries * entry_size * multiget);
  }

(* Digitised from the shape of Fig. 4c of "A Hardware Accelerator for
   Protocol Buffers" as quoted in the Cornflakes paper: 34% of field sizes
   are <= 8 B, 94.9% <= 512 B, with a thin tail up to ~4 KB. *)
let size_points =
  [|
    (2, 0.10);
    (4, 0.10);
    (8, 0.14);
    (16, 0.12);
    (24, 0.08);
    (32, 0.07);
    (64, 0.10);
    (128, 0.094);
    (256, 0.085);
    (512, 0.06);
    (1024, 0.028);
    (2048, 0.015);
    (4096, 0.008);
  |]

let key_of rank = Spec.padded_key ~prefix:"google-object-key-" ~width:45 rank

let mtu_budget = 8192

let sample_sizes dist rng ~count =
  let rec attempt tries =
    let sizes = List.init count (fun _ -> Sim.Dist.Discrete.sample dist rng) in
    let total = List.fold_left ( + ) 0 sizes in
    if total <= mtu_budget || tries > 20 then sizes else attempt (tries + 1)
  in
  attempt 0

let mean_field_size =
  let total = Array.fold_left (fun a (_, w) -> a +. w) 0.0 size_points in
  Array.fold_left (fun a (s, w) -> a +. (float_of_int s *. w /. total)) 0.0
    size_points

(* Per-class buffer budget: expected draws per class from [size_points],
   with 40% headroom plus slack. *)
let classes_for ~n_keys ~mean_vals =
  let total_w = Array.fold_left (fun a (_, w) -> a +. w) 0.0 size_points in
  let shares = Hashtbl.create 8 in
  Array.iter
    (fun (s, w) ->
      let c = Spec.class_of s in
      Hashtbl.replace shares c
        ((try Hashtbl.find shares c with Not_found -> 0.0) +. (w /. total_w)))
    size_points;
  let draws = float_of_int n_keys *. mean_vals in
  Hashtbl.fold
    (fun c share acc -> (c, int_of_float (draws *. share *. 1.4) + 2048) :: acc)
    shares []
  |> List.sort compare

let make ?(n_keys = 65536) ?(zipf_s = 0.99) ~max_vals () =
  assert (max_vals >= 1);
  let dist = Sim.Dist.Discrete.create size_points in
  let zipf = Sim.Dist.Zipf.create ~n:n_keys ~s:zipf_s in
  let mean_vals = float_of_int (1 + max_vals) /. 2.0 in
  {
    Spec.name = Printf.sprintf "google-1..%d" max_vals;
    store_capacity = n_keys;
    pool_classes = classes_for ~n_keys ~mean_vals;
    populate =
      (fun store ~pool ->
        let rng = Sim.Rng.create ~seed:0x900913 in
        for rank = 1 to n_keys do
          let count = 1 + Sim.Rng.int rng max_vals in
          let sizes = sample_sizes dist rng ~count in
          Kvstore.Store.put_string ~cpu:Memmodel.Cpu.none store ~key:(key_of rank)
            (Spec.alloc_value pool ~repr:`Linked sizes)
        done);
    next =
      (fun rng ->
        Spec.Get { keys = [ key_of (Sim.Dist.Zipf.sample zipf rng) ] });
    mean_response_bytes = mean_field_size *. mean_vals;
  }

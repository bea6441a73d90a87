let segment_bytes = 8192

let max_object_bytes = 2 * 1024 * 1024

let min_object_bytes = 1000

let n_objects_default = 8192

(* Lognormal with mean ~ 20 KB: sigma = 1.5, mu = ln 20000 - sigma^2/2. *)
let sigma = 1.5

let mu = log 20000.0 -. (sigma *. sigma /. 2.0)

let sample_object_size rng =
  let s = int_of_float (Sim.Dist.lognormal rng ~mu ~sigma) in
  if s < min_object_bytes then min_object_bytes
  else if s > max_object_bytes then max_object_bytes
  else s

let key_of ~rank = Spec.padded_key ~prefix:"cdn-image-object-" ~width:43 rank

(* Object sizes are a deterministic function of the rank so that the
   populate pass, the request generator, and the experiment harness agree
   without sharing state. *)
let size_of ~rank =
  let rng = Sim.Rng.create ~seed:(0xcd11 + (rank * 7919)) in
  sample_object_size rng

let segments_of ~rank =
  (size_of ~rank + segment_bytes - 1) / segment_bytes

let segment_sizes ~rank =
  let size = size_of ~rank in
  let n = segments_of ~rank in
  List.init n (fun i ->
      if i = n - 1 then size - (segment_bytes * (n - 1)) else segment_bytes)

let make ?(n_objects = n_objects_default) ?(zipf_s = 0.99) () =
  let zipf = Sim.Dist.Zipf.create ~n:n_objects ~s:zipf_s in
  (* Budget pool classes from the deterministic population itself. *)
  let counts = Hashtbl.create 16 in
  for rank = 1 to n_objects do
    List.iter
      (fun s ->
        let c = Spec.class_of s in
        Hashtbl.replace counts c
          (1 + try Hashtbl.find counts c with Not_found -> 0))
      (segment_sizes ~rank)
  done;
  let classes =
    Hashtbl.fold (fun c n acc -> (c, n + 256) :: acc) counts []
    |> List.sort compare
  in
  (* Sequential sub-object walk: one shared cursor, refilled by Zipf. *)
  let current = ref None in
  let total_bytes = ref 0 and total_segments = ref 0 in
  for rank = 1 to n_objects do
    total_bytes := !total_bytes + size_of ~rank;
    total_segments := !total_segments + segments_of ~rank
  done;
  {
    Spec.name = "cdn-image";
    store_capacity = n_objects;
    pool_classes = classes;
    populate =
      (fun store ~pool ->
        for rank = 1 to n_objects do
          Kvstore.Store.put_string ~cpu:Memmodel.Cpu.none store ~key:(key_of ~rank)
            (Spec.alloc_value pool ~repr:`Vector (segment_sizes ~rank))
        done);
    next =
      (fun rng ->
        let rank, idx =
          match !current with
          | Some (rank, idx) when idx < segments_of ~rank -> (rank, idx)
          | _ -> (Sim.Dist.Zipf.sample zipf rng, 0)
        in
        current :=
          if idx + 1 < segments_of ~rank then Some (rank, idx + 1) else None;
        Spec.Get_index { key = key_of ~rank; index = idx });
    mean_response_bytes =
      float_of_int !total_bytes /. float_of_int !total_segments;
  }

(* Lognormal calibrated so that P(size >= 512) ~ 0.32: with sigma = 1.25,
   ln 512 = 6.238, mu = 5.655 gives z = 0.466, P ~ 0.32. *)
let mu = 5.655

let sigma = 1.25

let max_size = 8192

let sample_size rng =
  let s = Sim.Dist.lognormal rng ~mu ~sigma in
  let n = int_of_float s in
  if n < 8 then 8 else if n > max_size then max_size else n

let key_of rank = Spec.padded_key ~prefix:"tw:" ~width:16 rank

let mean_size = exp (mu +. (sigma *. sigma /. 2.0)) (* ~ 625 B, pre-clip *)

let make ?(n_keys = 131072) ?(zipf_s = 0.99) ?(put_fraction = 0.08) () =
  let zipf = Sim.Dist.Zipf.create ~n:n_keys ~s:zipf_s in
  (* Power-of-two classes with budget proportional to the lognormal mass
     that lands in each (plus put-churn headroom). *)
  let classes =
    List.map
      (fun c ->
        let lo = float_of_int (c / 2) and hi = float_of_int c in
        let cdf x =
          if x <= 0.0 then 0.0
          else begin
            let z = (log x -. mu) /. sigma in
            0.5 *. (1.0 +. Float.erf (z /. sqrt 2.0))
          end
        in
        let share = if c = 64 then cdf hi else cdf hi -. cdf lo in
        let share = if c = max_size then share +. (1.0 -. cdf hi) else share in
        (c, int_of_float (float_of_int n_keys *. share *. 1.5) + 2048))
      [ 64; 128; 256; 512; 1024; 2048; 4096; 8192 ]
  in
  {
    Spec.name = "twitter";
    store_capacity = n_keys;
    pool_classes = classes;
    populate =
      (fun store ~pool ->
        let rng = Sim.Rng.create ~seed:0x7517 in
        for rank = 1 to n_keys do
          Kvstore.Store.put_string ~cpu:Memmodel.Cpu.none store ~key:(key_of rank)
            (Spec.alloc_value pool ~repr:`Single [ sample_size rng ])
        done);
    next =
      (fun rng ->
        let key = key_of (Sim.Dist.Zipf.sample zipf rng) in
        if Sim.Rng.bool rng put_fraction then
          Spec.Put { key; sizes = [ sample_size rng ] }
        else Spec.Get { keys = [ key ] });
    mean_response_bytes = Float.min mean_size (float_of_int max_size);
  }

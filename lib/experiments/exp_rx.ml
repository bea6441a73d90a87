(* RX-path ablation: the validate-once [Wire.Reader] (the only decoder the
   servers use for Cornflakes frames) against [Format_.deserialize], the
   heap [Wire.Dyn] parse kept as the reference oracle. One delivered GET
   request frame is parsed repeatedly through both, reporting simulated
   deserialize-side ns/op (the [Memmodel.Cpu] meter — deterministic) and
   real minor-heap words/op. The gate: the in-place reader must cut ns/op
   by >= 25% and minor words/op by >= 50% against the Dyn parse.

   Beyond the printed table the run writes BENCH_rx.json — simulated
   metrics and deterministic allocation counts only, no wall-clock — which
   CI regenerates at --jobs 1 and --jobs 4 and compares byte-for-byte. *)

type deser = { ns_per_op : float; words_per_op : float }

let deser_iters = 2000

let keys =
  (* Four 32 B keys: the GetM(4) shape of the paper's Listing 1, with the
     key size the Twitter trace centres on. *)
  List.init 4 (fun i -> Printf.sprintf "twitter:user:%013d:profile-%02d" i i)

(* One GET request frame produced by a real send through the loopback
   fabric, so both parses see exactly the wire bytes a server sees. *)
let make_frame () =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let cpu = Memmodel.Cpu.none in
  let ep = Net.Endpoint.create ~cpu fabric registry ~id:1 in
  let peer = Net.Endpoint.create ~cpu fabric registry ~id:2 in
  let got = ref None in
  Net.Endpoint.set_rx peer (fun ~src:_ buf -> got := Some buf);
  let m = Wire.Dyn.create Apps.Proto.req in
  Wire.Dyn.set_int m "id" 1L;
  Wire.Dyn.set_int m "op" Apps.Proto.op_get;
  List.iter
    (fun k ->
      Wire.Dyn.append m "keys" (Wire.Dyn.Payload (Wire.Payload.of_string space k)))
    keys;
  Cornflakes.Send.send_object Cornflakes.Config.default ep ~dst:2 m;
  Sim.Engine.run_all engine;
  match !got with
  | Some b -> b
  | None -> failwith "exp_rx: loopback send delivered no frame"

(* [measure cpu op] — simulated ns from the cost meter, minor words from a
   counted loop; both deterministic for a deterministic [op]. *)
let measure cpu op =
  for _ = 1 to 100 do
    op ()
  done;
  let ns0 = Memmodel.Cpu.ns cpu in
  let w0 = Gc.minor_words () in
  for _ = 1 to deser_iters do
    op ()
  done;
  {
    ns_per_op = (Memmodel.Cpu.ns cpu -. ns0) /. float_of_int deser_iters;
    words_per_op = (Gc.minor_words () -. w0) /. float_of_int deser_iters;
  }

(* The GET-path consumption a server performs per request: read id and
   op, copy each key out for the store lookup (the hybrid exit: small
   fields are hashed, so they are copied either way). *)
let measure_dyn_parse () =
  let frame = make_frame () in
  let cpu = Memmodel.Cpu.create Memmodel.Params.default in
  let sink = ref 0 in
  let op () =
    let d =
      Cornflakes.Send.deserialize ~cpu Apps.Proto.schema Apps.Proto.req frame
    in
    (match Wire.Dyn.get_int d "id" with Some _ -> () | None -> ());
    (match Wire.Dyn.get_int d "op" with Some _ -> () | None -> ());
    List.iter
      (fun v ->
        match v with
        | Wire.Dyn.Payload p ->
            let view = Wire.Payload.view p in
            Memmodel.Cpu.stream cpu Memmodel.Cpu.App ~addr:view.Mem.View.addr
              ~len:view.Mem.View.len;
            sink := !sink + String.length (Mem.View.to_string view)
        | _ -> ())
      (Wire.Dyn.get_list d "keys");
    Wire.Dyn.release ~cpu d
  in
  let r = measure cpu op in
  Mem.Pinned.Buf.decr_ref ~cpu:Memmodel.Cpu.none ~site:"exp_rx.frame" frame;
  r

let measure_inplace_read () =
  let frame = make_frame () in
  let cpu = Memmodel.Cpu.create Memmodel.Params.default in
  let reader = Wire.Reader.create ~cpu Apps.Proto.req in
  let sink = ref 0 in
  let op () =
    Wire.Reader.validate reader frame;
    ignore (Wire.Reader.get_u64 reader Apps.Proto.req_id);
    ignore (Wire.Reader.get_u64 reader Apps.Proto.req_op);
    let n = Wire.Reader.count reader Apps.Proto.req_keys in
    for j = 0 to n - 1 do
      sink :=
        !sink
        + String.length (Wire.Reader.elem_string reader Apps.Proto.req_keys ~j)
    done
  in
  let r = measure cpu op in
  (* Drop the reader's handle cache, then the delivery reference. *)
  Wire.Reader.clear reader;
  Mem.Pinned.Buf.decr_ref ~cpu:Memmodel.Cpu.none ~site:"exp_rx.frame" frame;
  r

let reduction_pct ~base ~now =
  if base > 0.0 then 100.0 *. (1.0 -. (now /. base)) else 0.0

(* --- output ------------------------------------------------------------- *)

let json_file = "BENCH_rx.json"

let write_json ~seed ~dyn ~zc ~ns_red ~words_red ~wins =
  let oc = open_out json_file in
  Printf.fprintf oc "{\n  \"schema\": \"cornflakes-bench-rx/2\",\n";
  Printf.fprintf oc "  \"seed\": %d,\n" seed;
  Printf.fprintf oc "  \"zc_rx_wins\": %b,\n" wins;
  Printf.fprintf oc "  \"deserialize\": {\n";
  Printf.fprintf oc
    "    \"dyn_ns_per_op\": %.1f, \"zc_ns_per_op\": %.1f, \
     \"ns_reduction_pct\": %.1f,\n"
    dyn.ns_per_op zc.ns_per_op ns_red;
  Printf.fprintf oc
    "    \"dyn_minor_words_per_op\": %.1f, \"zc_minor_words_per_op\": %.1f, \
     \"words_reduction_pct\": %.1f\n"
    dyn.words_per_op zc.words_per_op words_red;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" json_file

let run () =
  let dyn = measure_dyn_parse () in
  let zc = measure_inplace_read () in
  let ns_red = reduction_pct ~base:dyn.ns_per_op ~now:zc.ns_per_op in
  let words_red = reduction_pct ~base:dyn.words_per_op ~now:zc.words_per_op in
  let d =
    Stats.Table.create
      ~title:
        "RX deserialize in isolation: GetM(4) request frame, simulated \
         ns/op + minor words/op"
      ~columns:[ "path"; "sim ns/op"; "minor words/op" ]
  in
  Stats.Table.add_row d
    [
      "dyn-parse (oracle)";
      Printf.sprintf "%.1f" dyn.ns_per_op;
      Printf.sprintf "%.1f" dyn.words_per_op;
    ];
  Stats.Table.add_row d
    [
      "reader (zc-RX)";
      Printf.sprintf "%.1f" zc.ns_per_op;
      Printf.sprintf "%.1f" zc.words_per_op;
    ];
  Stats.Table.print d;
  Printf.printf "RX deserialize: ns/op -%.1f%%, minor words/op -%.1f%%\n"
    ns_red words_red;
  let wins = ns_red >= 25.0 && words_red >= 50.0 in
  Printf.printf "zc-RX gate (>=25%% ns, >=50%% words): %s\n"
    (if wins then "OK" else "VIOLATED");
  write_json ~seed:(Apps.Rig.default_seed ()) ~dyn ~zc ~ns_red ~words_red ~wins

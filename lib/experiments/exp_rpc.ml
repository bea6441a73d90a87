(* RPC codegen ablation: the hand-wired dispatch and call paths the
   generated service layer replaced, measured against the generated
   skeleton/stub over identical work. Two sections:

   - dispatch: one delivered GET request frame served repeatedly by (a) a
     hand-wired server loop — validate, id echo, if-chain on the op word,
     tail-send — and (b) the generated [Kv_service.serve] skeleton —
     validate once, id echo, branchless method-table dispatch, tail-send.
     Both run the same handler body over the same in-place reader.

   - call: a full client->server->client round trip per op through the
     loopback fabric, with (a) a hand-wired client — stamp id and op,
     folded-writer send, parse the response with a hand-held reader —
     and (b) the generated [call_get] stub + [deliver], which add the
     call-state bookkeeping (id allocation, pending-reply table).

   Both report simulated ns/op (the [Memmodel.Cpu] meter — deterministic)
   and real minor-heap words/op. The acceptance gate: the generated path
   must stay within 5% of hand-wired sim ns/op on both sections — the
   schema compiler exists to fold the hand-written protocol away, not to
   tax it. Results land in BENCH_rpc.json (no wall-clock), which CI
   regenerates and gates. *)

module S = Apps.Kv_rpc.Kv_service

type meas = { ns_per_op : float; words_per_op : float }

let iters = 2000

let keys =
  (* The GetM(4) request shape of exp_rx, so dispatch numbers compose
     with the RX-deserialize numbers measured there. *)
  List.init 4 (fun i -> Printf.sprintf "twitter:user:%013d:profile-%02d" i i)

(* One GET request frame produced by a real send through the loopback
   fabric: both dispatch arms serve exactly the wire bytes a server sees. *)
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
  Wire.Dyn.set_int m "op" S.id_get;
  List.iter
    (fun k ->
      Wire.Dyn.append m "keys"
        (Wire.Dyn.Payload (Wire.Payload.of_string space k)))
    keys;
  Cornflakes.Send.send_object Cornflakes.Config.default ep ~dst:2 m;
  Sim.Engine.run_all engine;
  match !got with
  | Some b -> b
  | None -> failwith "exp_rpc: loopback send delivered no frame"

let measure cpu op =
  for _ = 1 to 100 do
    op ()
  done;
  let ns0 = Memmodel.Cpu.ns cpu in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    op ()
  done;
  {
    ns_per_op = (Memmodel.Cpu.ns cpu -. ns0) /. float_of_int iters;
    words_per_op = (Gc.minor_words () -. w0) /. float_of_int iters;
  }

(* The handler body both dispatch arms share: consume each key in place
   (the store-lookup read) — identical work, only the dispatch differs. *)
let consume_keys r sink =
  let n = Wire.Reader.count r Apps.Proto.req_keys in
  for j = 0 to n - 1 do
    sink := !sink + String.length (Wire.Reader.elem_string r Apps.Proto.req_keys ~j)
  done

(* --- dispatch ----------------------------------------------------------- *)

(* The pre-codegen server loop this PR deleted from the shard and kv
   servers: validate, clear + id-echo the pooled response, if-chain on
   the op word, tail-send. *)
let measure_hand_dispatch () =
  let frame = make_frame () in
  let cpu = Memmodel.Cpu.create Memmodel.Params.default in
  let reader = Wire.Reader.create ~cpu Apps.Proto.req in
  let resp = Wire.Dyn.create Apps.Proto.resp in
  let sent = ref 0 and sink = ref 0 in
  let op () =
    Wire.Reader.validate reader frame;
    Wire.Dyn.clear resp;
    if Wire.Reader.present reader Apps.Proto.req_id then
      Wire.Dyn.set_int resp "id" (Wire.Reader.get_u64 reader Apps.Proto.req_id);
    let w = Wire.Reader.get_u64_or reader Apps.Proto.req_op ~default:(-1L) in
    if w = S.id_get then consume_keys reader sink
    else if w = S.id_put then ()
    else if w = S.id_get_index then ();
    incr sent
  in
  let r = measure cpu op in
  Wire.Reader.clear reader;
  Mem.Pinned.Buf.decr_ref ~cpu:Memmodel.Cpu.none ~site:"exp_rpc.frame" frame;
  r

let measure_gen_dispatch () =
  let frame = make_frame () in
  let cpu = Memmodel.Cpu.create Memmodel.Params.default in
  let sent = ref 0 and sink = ref 0 in
  let srv = S.server ~cpu ~send:(fun ~dst:_ _ -> incr sent) () in
  S.on_get srv ~reader:(fun ~src:_ r _resp -> consume_keys r sink);
  let op () = S.serve srv ~src:1 frame in
  let r = measure cpu op in
  Mem.Pinned.Buf.decr_ref ~cpu:Memmodel.Cpu.none ~site:"exp_rpc.frame" frame;
  r

(* --- call --------------------------------------------------------------- *)

(* One loopback rig per arm: client endpoint 1, server endpoint 2, one
   shared meter so the measured ns cover both sides of the round trip.
   The server is the generated skeleton in both arms (the dispatch
   section isolates that difference); the arms differ in the client. *)
let make_call_rig () =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let cpu = Memmodel.Cpu.create Memmodel.Params.default in
  let cli = Net.Endpoint.create ~cpu fabric registry ~id:1 in
  let srv_ep = Net.Endpoint.create ~cpu fabric registry ~id:2 in
  let sink = ref 0 in
  let srv =
    S.server ~cpu
      ~send:(fun ~dst resp ->
        Cornflakes.Send.send_object Cornflakes.Config.default srv_ep ~dst resp)
      ()
  in
  S.on_get srv ~reader:(fun ~src:_ r _resp -> consume_keys r sink);
  Net.Endpoint.set_rx srv_ep (fun ~src buf ->
      S.serve srv ~src buf;
      Mem.Pinned.Buf.decr_ref ~cpu ~site:"exp_rpc.srv_done" buf);
  let req = Apps.Kv_rpc.Req.create () in
  List.iter
    (fun k ->
      Apps.Kv_rpc.Req.add_keys_payload req (Wire.Payload.of_string space k))
    keys;
  (engine, space, cpu, cli, srv_ep, req)

let drain engine cli srv_ep =
  Sim.Engine.run_all engine;
  (* NIC completions have fired: mass-reset both egress arenas, the
     steady-state discipline every server in the tree uses. *)
  Mem.Arena.reset (Net.Endpoint.arena cli);
  Mem.Arena.reset (Net.Endpoint.arena srv_ep)

(* The pre-codegen client: stamp id and op by hand, send through the
   folded writer, parse the reply with a hand-held reader. *)
let measure_hand_call () =
  let engine, _space, cpu, cli, srv_ep, req = make_call_rig () in
  let reader = Apps.Kv_rpc.Resp.reader ~cpu () in
  let replies = ref 0 in
  Net.Endpoint.set_rx cli (fun ~src:_ buf ->
      Apps.Kv_rpc.Resp.read_folded reader buf;
      ignore (Wire.Reader.get_u64_or reader S.resp_id ~default:0L);
      incr replies;
      Mem.Pinned.Buf.decr_ref ~cpu ~site:"exp_rpc.cli_done" buf);
  let next = ref 0 in
  let config = Cornflakes.Config.default in
  let tr = Net.Endpoint.transport cli in
  let op () =
    incr next;
    Apps.Kv_rpc.Req.set_id req (Int64.of_int !next);
    Apps.Kv_rpc.Req.set_op req S.id_get;
    Apps.Kv_rpc.Req.send config tr ~dst:2 req;
    drain engine cli srv_ep
  in
  let r = measure cpu op in
  if !replies <> iters + 100 then failwith "exp_rpc: hand call lost replies";
  r

let measure_gen_call () =
  let engine, _space, cpu, cli, srv_ep, req = make_call_rig () in
  let c = S.client (Net.Endpoint.transport cli) in
  Net.Endpoint.set_rx cli (fun ~src:_ buf ->
      S.deliver c buf;
      Mem.Pinned.Buf.decr_ref ~cpu ~site:"exp_rpc.cli_done" buf);
  let replies = ref 0 in
  let op () =
    ignore
      (S.call_get c ~dst:2 req ~on_reply:(fun r ->
           ignore (Wire.Reader.get_u64_or r S.resp_id ~default:0L);
           incr replies));
    drain engine cli srv_ep
  in
  let r = measure cpu op in
  if !replies <> iters + 100 then failwith "exp_rpc: gen call lost replies";
  r

(* --- output ------------------------------------------------------------- *)

let delta_pct ~hand ~gen =
  if hand > 0.0 then 100.0 *. ((gen /. hand) -. 1.0) else 0.0

let json_file = "BENCH_rpc.json"

let write_json ~seed ~d_hand ~d_gen ~c_hand ~c_gen ~ok =
  let section oc name hand gen =
    Printf.fprintf oc "  \"%s\": {\n" name;
    Printf.fprintf oc
      "    \"hand_ns_per_op\": %.1f, \"gen_ns_per_op\": %.1f, \
       \"ns_delta_pct\": %.2f,\n"
      hand.ns_per_op gen.ns_per_op
      (delta_pct ~hand:hand.ns_per_op ~gen:gen.ns_per_op);
    Printf.fprintf oc
      "    \"hand_minor_words_per_op\": %.1f, \"gen_minor_words_per_op\": \
       %.1f\n"
      hand.words_per_op gen.words_per_op;
    Printf.fprintf oc "  }"
  in
  let oc = open_out json_file in
  Printf.fprintf oc "{\n  \"schema\": \"cornflakes-bench-rpc/1\",\n";
  Printf.fprintf oc "  \"seed\": %d,\n" seed;
  Printf.fprintf oc "  \"generated_within_5pct\": %b,\n" ok;
  section oc "dispatch" d_hand d_gen;
  Printf.fprintf oc ",\n";
  section oc "call" c_hand c_gen;
  Printf.fprintf oc "\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" json_file

let run () =
  let d_hand = measure_hand_dispatch () in
  let d_gen = measure_gen_dispatch () in
  let c_hand = measure_hand_call () in
  let c_gen = measure_gen_call () in
  let t =
    Stats.Table.create
      ~title:
        "RPC codegen ablation: hand-wired vs generated, sim ns/op + minor \
         words/op"
      ~columns:
        [ "section"; "path"; "sim ns/op"; "minor words/op"; "ns delta" ]
  in
  let add section name hand m =
    Stats.Table.add_row t
      [
        section;
        name;
        Printf.sprintf "%.1f" m.ns_per_op;
        Printf.sprintf "%.1f" m.words_per_op;
        (match hand with
        | None -> "-"
        | Some h ->
            Printf.sprintf "%+.2f%%" (delta_pct ~hand:h.ns_per_op ~gen:m.ns_per_op));
      ]
  in
  add "dispatch" "hand-wired if-chain" None d_hand;
  add "dispatch" "generated serve" (Some d_hand) d_gen;
  add "call" "hand-wired client" None c_hand;
  add "call" "generated call_get" (Some c_hand) c_gen;
  Stats.Table.print t;
  let ok =
    d_gen.ns_per_op <= d_hand.ns_per_op *. 1.05
    && c_gen.ns_per_op <= c_hand.ns_per_op *. 1.05
  in
  Printf.printf "rpc codegen gate (generated within 5%% sim ns/op): %s\n"
    (if ok then "OK" else "VIOLATED");
  write_json ~seed:(Apps.Rig.default_seed ()) ~d_hand ~d_gen ~c_hand ~c_gen ~ok

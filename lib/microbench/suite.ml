(* Bechamel microbenchmarks of the real serializer hot paths: wall-clock
   ns/op of this OCaml implementation plus minor-heap words/op from a
   counted loop around [Gc.minor_words]. Shared by `bench/main.exe` and
   the `cornflakes bench` subcommand.

   Parallelism: words/op is deterministic per benchmark (minor words are
   per-domain in OCaml 5), so with --jobs > 1 each benchmark's words loop
   runs as its own pool job over a *fresh* suite instance — the suite's
   shared scratch (one Addr_space, reused plan/writer) is not safe to
   share across domains. Bechamel's wall-clock section always runs
   serially: concurrent timing loops would contend for cores and corrupt
   the ns/op estimates. *)

(* One benchmark = a thunk measured two ways. [tracked] marks benchmarks
   whose words/op are gated against the committed baseline (words/op is
   deterministic; ns/op varies by machine and is reported, not gated). *)
type mb = { name : string; tracked : bool; fn : unit -> unit }

type result = {
  r_name : string;
  r_tracked : bool;
  mutable ns_per_op : float;
  words_per_op : float;
}


(* Every loop below is unmetered: the suite measures wall ns and minor
   words, not simulated cycles. *)
let none = Memmodel.Cpu.none

let words_per_op ~iters fn =
  for _ = 1 to max 100 (iters / 10) do
    fn ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    fn ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

(* The serialize-and-send loop: the paper's steady-state hot path. One
   pooled response object is cleared and rebuilt per op (one copied 64 B
   field, two zero-copy fields), sent through [Send.send_object] (or a
   folded writer via [Send.send_planned] when [write] is given), and the
   engine drained so NIC completions release the stack's references. *)
let make_send_loop ~pooled ?write () =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let ep = Net.Endpoint.create ~cpu:none fabric registry ~id:1 in
  let _peer = Net.Endpoint.create ~cpu:none fabric registry ~id:2 in
  let pool =
    Mem.Pinned.Pool.create space ~name:"bench-send"
      ~classes:[ (64, 64); (512, 64); (2048, 64) ]
  in
  let value len =
    let b = Mem.Pinned.Buf.alloc ~cpu:none ~site:"bench.value" pool ~len in
    Mem.Pinned.Buf.fill ~cpu:none ~site:"bench.value" b (String.make len 'v');
    b
  in
  let b64 = value 64 and b512 = value 512 and b2048 = value 2048 in
  (* Views are stable for the life of the buffers; take them once. *)
  let v64 = Mem.Pinned.Buf.view b64
  and v512 = Mem.Pinned.Buf.view b512
  and v2048 = Mem.Pinned.Buf.view b2048 in
  let config = Cornflakes.Config.default in
  let scratch = Wire.Dyn.create Apps.Proto.resp in
  let build msg =
    Wire.Dyn.set_int_at msg Apps.Proto.resp_id 7L;
    Wire.Dyn.append_payload_at msg Apps.Proto.resp_vals
      (Cornflakes.Cf_ptr.make ~cpu:none config ep v64);
    Wire.Dyn.append_payload_at msg Apps.Proto.resp_vals
      (Cornflakes.Cf_ptr.make ~cpu:none config ep v512);
    Wire.Dyn.append_payload_at msg Apps.Proto.resp_vals
      (Cornflakes.Cf_ptr.make ~cpu:none config ep v2048)
  in
  fun () ->
    let msg =
      if pooled then begin
        Wire.Dyn.clear scratch;
        scratch
      end
      else Wire.Dyn.create Apps.Proto.resp
    in
    build msg;
    (match write with
    | None -> Cornflakes.Send.send_object config ep ~dst:2 msg
    | Some write ->
        Cornflakes.Send.send_planned config
          (Net.Endpoint.transport ep)
          ~dst:2 msg ~write);
    Sim.Engine.run_all engine;
    Mem.Arena.reset (Net.Endpoint.arena ep)

(* One generated-RPC round trip per op: the [call_get] stub stamps the
   call id and method word, sends through the folded writer, the
   generated [serve] skeleton dispatches on the server endpoint, and
   [deliver] routes the reply back to the pending call. The engine is
   drained and both egress arenas mass-reset per op — the same
   steady-state discipline as the serialize+send loops above. *)
let make_rpc_call_loop () =
  let module S = Apps.Kv_rpc.Kv_service in
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let cli = Net.Endpoint.create ~cpu:none fabric registry ~id:1 in
  let srv_ep = Net.Endpoint.create ~cpu:none fabric registry ~id:2 in
  let sink = ref 0 in
  let srv =
    S.server ~cpu:none
      ~send:(fun ~dst resp ->
        Cornflakes.Send.send_object Cornflakes.Config.default srv_ep ~dst resp)
      ()
  in
  S.on_get srv ~reader:(fun ~src:_ r _resp ->
      let n = Wire.Reader.count r Apps.Proto.req_keys in
      for j = 0 to n - 1 do
        let off, len = Wire.Reader.elem_off_len r Apps.Proto.req_keys ~j in
        sink := !sink + off + len
      done);
  Net.Endpoint.set_rx srv_ep (fun ~src buf ->
      S.serve srv ~src buf;
      Mem.Pinned.Buf.decr_ref ~cpu:none ~site:"bench.rpc" buf);
  let c = S.client (Net.Endpoint.transport cli) in
  Net.Endpoint.set_rx cli (fun ~src:_ buf ->
      S.deliver c buf;
      Mem.Pinned.Buf.decr_ref ~cpu:none ~site:"bench.rpc" buf);
  let req = Apps.Kv_rpc.Req.create () in
  List.iter
    (fun j ->
      Apps.Kv_rpc.Req.add_keys_payload req
        (Wire.Payload.of_string space
           (Printf.sprintf "twitter:user:%013d:profile-%02d" j j)))
    [ 0; 1; 2; 3 ];
  fun () ->
    ignore (S.call_get c ~dst:2 req ~on_reply:(fun _ -> ()));
    Sim.Engine.run_all engine;
    Mem.Arena.reset (Net.Endpoint.arena cli);
    Mem.Arena.reset (Net.Endpoint.arena srv_ep)

let event_tick () = ()

let release_frame ~src:_ buf = Mem.Pinned.Buf.decr_ref ~cpu:none buf

let make_benchmarks ~seed () =
  let event_engine = Sim.Engine.create () in
  let space = Mem.Addr_space.create () in
  (* Shared scratch: one Addr_space, payload strings and sample messages
     built once — so per-op numbers measure the serializer, not setup. *)
  let scratch = Bytes.create 16384 in
  let scratch_view =
    Mem.View.make
      ~addr:(Mem.Addr_space.reserve space ~bytes:16384)
      ~data:scratch ~off:0 ~len:16384
  in
  let payload_64 = String.make 64 'v'
  and payload_512 = String.make 512 'v'
  and payload_2048 = String.make 2048 'v' in
  let pool =
    Mem.Pinned.Pool.create space ~name:"bench"
      ~classes:[ (64, 64); (512, 64); (2048, 64); (16384, 64) ]
  in
  let pinned s =
    let b =
      Mem.Pinned.Buf.alloc ~cpu:none ~site:"bench.micro" pool
        ~len:(String.length s)
    in
    Mem.Pinned.Buf.fill ~cpu:none ~site:"bench.micro" b s;
    b
  in
  (* Hybrid message: one copied-size field, two zero-copy fields. *)
  let msg = Wire.Dyn.create Apps.Proto.resp in
  Wire.Dyn.set_int msg "id" 7L;
  Wire.Dyn.append msg "vals"
    (Wire.Dyn.Payload (Wire.Payload.of_string space payload_64));
  List.iter
    (fun s ->
      Wire.Dyn.append msg "vals"
        (Wire.Dyn.Payload (Wire.Payload.Zero_copy (pinned s))))
    [ payload_512; payload_2048 ];
  let lit_64 = Wire.Payload.of_string space payload_64
  and lit_512 = Wire.Payload.of_string space payload_512
  and lit_2048 = Wire.Payload.of_string space payload_2048 in
  (* protobuf round trip needs an endpoint arena; build a tiny rig. *)
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let registry = Mem.Registry.create space in
  let ep = Net.Endpoint.create ~cpu:none fabric registry ~id:1 in
  let proto_len = Baselines.Protobuf.encoded_len msg in
  let proto_buf =
    let w = Wire.Cursor.Writer.create ~cpu:none scratch_view in
    Baselines.Protobuf.encode ~cpu:none w msg;
    pinned (Bytes.sub_string scratch 0 proto_len)
  in
  (* Reused-plan / reused-writer scratch for the "after" pairs. *)
  let plan = Cornflakes.Format_.create_plan () in
  let writer = Wire.Cursor.Writer.create ~cpu:none scratch_view in
  let dyn_scratch = Wire.Dyn.create Apps.Proto.resp in
  let build_dyn m =
    Wire.Dyn.set_int_at m Apps.Proto.resp_id 7L;
    Wire.Dyn.append_payload_at m Apps.Proto.resp_vals lit_64;
    Wire.Dyn.append_payload_at m Apps.Proto.resp_vals lit_512;
    Wire.Dyn.append_payload_at m Apps.Proto.resp_vals lit_2048
  in
  (* RX pair scratch: one response frame produced by a real send through
     the loopback fabric, then parsed per op — into a heap [Dyn] (the
     pre-reader receive path) vs validated once and read in place. The
     frame is a delivered RX-ring buffer held for the life of the suite. *)
  let rx_frame =
    let peer = Net.Endpoint.create ~cpu:none fabric registry ~id:3 in
    let got = ref None in
    Net.Endpoint.set_rx peer (fun ~src:_ buf -> got := Some buf);
    (* A dedicated message: the send consumes one reference per zero-copy
       payload at NIC completion, so it must not share [msg]'s buffers. *)
    let m = Wire.Dyn.create Apps.Proto.resp in
    Wire.Dyn.set_int m "id" 7L;
    Wire.Dyn.append m "vals"
      (Wire.Dyn.Payload (Wire.Payload.of_string space payload_64));
    List.iter
      (fun s ->
        Wire.Dyn.append m "vals"
          (Wire.Dyn.Payload (Wire.Payload.Zero_copy (pinned s))))
      [ payload_512; payload_2048 ];
    Cornflakes.Send.send_object Cornflakes.Config.default ep ~dst:3 m;
    Sim.Engine.run_all engine;
    match !got with
    | Some b -> b
    | None -> failwith "microbench: loopback send delivered no frame"
  in
  let rx_reader = Wire.Reader.create Apps.Proto.resp in
  (* RPC dispatch scratch: one delivered GET request frame and a generated
     server skeleton with a reader handler registered for Get — per op the
     skeleton validates the frame once, echoes the id, dispatches the
     method word through the branchless table and tail-sends into a sink. *)
  let rpc_frame =
    let peer = Net.Endpoint.create ~cpu:none fabric registry ~id:4 in
    let got = ref None in
    Net.Endpoint.set_rx peer (fun ~src:_ buf -> got := Some buf);
    let m = Wire.Dyn.create Apps.Proto.req in
    Wire.Dyn.set_int m "id" 7L;
    Wire.Dyn.set_int m "op" Apps.Proto.op_get;
    List.iter
      (fun j ->
        Wire.Dyn.append m "keys"
          (Wire.Dyn.Payload
             (Wire.Payload.of_string space
                (Printf.sprintf "twitter:user:%013d:profile-%02d" j j))))
      [ 0; 1; 2; 3 ];
    Cornflakes.Send.send_object Cornflakes.Config.default ep ~dst:4 m;
    Sim.Engine.run_all engine;
    match !got with
    | Some b -> b
    | None -> failwith "microbench: loopback send delivered no rpc frame"
  in
  let rpc_sink = ref 0 in
  let rpc_srv =
    Apps.Kv_rpc.Kv_service.server ~cpu:none
      ~send:(fun ~dst:_ _ -> incr rpc_sink)
      ()
  in
  Apps.Kv_rpc.Kv_service.on_get rpc_srv ~reader:(fun ~src:_ r _resp ->
      let n = Wire.Reader.count r Apps.Proto.req_keys in
      for j = 0 to n - 1 do
        let off, len = Wire.Reader.elem_off_len r Apps.Proto.req_keys ~j in
        rpc_sink := !rpc_sink + off + len
      done);
  (* RX delivery: a dedicated device + receive ring; each op posts one
     1024 B frame into the ring and releases it straight back (refcount
     0 -> recycle), the steady-state delivery cost. *)
  let rx_nic = Nic.Device.create (Sim.Engine.create ()) ~model:Nic.Model.mellanox_cx6 in
  let rx_ring =
    Mem.Pinned.Pool.create space ~name:"bench-rx-ring" ~classes:[ (2048, 64) ]
  in
  let rxq = Nic.Device.attach_rx ~cpu:none rx_nic rx_ring in
  let rx_wire = Bytes.make 1024 'r' in
  (* Arena pair: classic bump-and-mass-reset vs free-list recycling. *)
  let arena_space = Mem.Addr_space.create () in
  let arena = Mem.Arena.create arena_space ~capacity:(1 lsl 16) in
  let arena_src = Mem.View.of_string arena_space payload_512 in
  (* NIC doorbell batch: 8 single-SGE reusable descriptors under one
     doorbell, refilled in place per op. No fabric: the default on_wire hook
     releases each egress frame straight back to the device's pool. *)
  let nic_engine = Sim.Engine.create () in
  let nic = Nic.Device.create nic_engine ~model:Nic.Model.mellanox_cx6 in
  let nic_bufs = Array.init 8 (fun _ -> pinned payload_512) in
  let nic_txds = Array.make 8 None in
  (* Store lookup: hits on a Twitter-shaped index (131,072 19 B "tw:"
     keys), each probed with a window of one buffer holding every key, as
     a request's key sits in its receive buffer. Values are empty: the row
     measures the index. Built on first use: the words loop builds a fresh
     suite per benchmark, and only this row needs it. *)
  let find_keys = 131_072 in
  let find_key rank = Workload.Spec.padded_key ~prefix:"tw:" ~width:16 rank in
  let find_klen = String.length (find_key 1) in
  let find_fixture =
    lazy
      (let store =
         Kvstore.Store.create space ~name:"bench-find" ~capacity:find_keys
       in
       let window = Bytes.create (find_keys * find_klen) in
       for i = 0 to find_keys - 1 do
         let key = find_key (i + 1) in
         Bytes.blit_string key 0 window (i * find_klen) find_klen;
         Kvstore.Store.put_string ~cpu:none store ~key
           (Kvstore.Store.Vector [||])
       done;
       (store, window))
  in
  let find_next = ref 0 in
  let zipf = Sim.Dist.Zipf.create ~n:1_000_000 ~s:0.99 in
  let zipf_rng = Sim.Rng.create ~seed in
  let cache_cpu = Memmodel.Cpu.create Memmodel.Params.default in
  let miss_addr = ref 0 in
  [
    {
      name = "protobuf-encode";
      tracked = true;
      fn =
        (fun () ->
          let w = Wire.Cursor.Writer.create ~cpu:none scratch_view in
          Baselines.Protobuf.encode ~cpu:none w msg);
    };
    {
      name = "protobuf-decode";
      tracked = true;
      fn =
        (fun () ->
          let m =
            Baselines.Protobuf.deserialize ~cpu:none ep Apps.Proto.schema
              Apps.Proto.resp proto_buf
          in
          Mem.Arena.reset (Net.Endpoint.arena ep);
          ignore m);
    };
    (* Paired: plan built fresh per message vs refilled in place. *)
    {
      name = "cf-measure-fresh-plan";
      tracked = true;
      fn = (fun () -> ignore (Cornflakes.Format_.measure msg));
    };
    {
      name = "cf-measure-reused-plan";
      tracked = true;
      fn = (fun () -> Cornflakes.Format_.measure_into plan msg);
    };
    (* Paired: full header+copied emit, fresh vs reused plan/writer. *)
    {
      name = "cf-write-fresh";
      tracked = true;
      fn =
        (fun () ->
          let p = Cornflakes.Format_.measure msg in
          let w = Wire.Cursor.Writer.create ~cpu:none scratch_view in
          Cornflakes.Format_.write p w msg);
    };
    {
      name = "cf-write-reused";
      tracked = true;
      fn =
        (fun () ->
          Cornflakes.Format_.measure_into plan msg;
          Wire.Cursor.Writer.reset ~cpu:none writer scratch_view;
          Cornflakes.Format_.write plan writer msg);
    };
    (* The generated folded writer of [Resp] (literal layout, one hoisted
       span) over the same message and reused plan/writer. *)
    {
      name = "cf-write-folded";
      tracked = true;
      fn =
        (fun () ->
          Cornflakes.Format_.measure_into plan msg;
          Wire.Cursor.Writer.reset ~cpu:none writer scratch_view;
          Cornflakes.Format_.run plan writer msg
            ~write:Apps.Kv_rpc.Resp.write_folded);
    };
    (* Paired: message object allocated per request vs pooled + cleared. *)
    {
      name = "dyn-build-fresh";
      tracked = true;
      fn = (fun () -> build_dyn (Wire.Dyn.create Apps.Proto.resp));
    };
    {
      name = "dyn-build-pooled";
      tracked = true;
      fn =
        (fun () ->
          Wire.Dyn.clear dyn_scratch;
          build_dyn dyn_scratch);
    };
    (* Paired: the same delivered frame deserialized into a heap Dyn (the
       reference oracle: object graph + payload references per message) vs
       validated once and accessed in place (scalars are literal-offset
       loads, values stay in the receive buffer). *)
    {
      name = "cf-read-dyn";
      tracked = true;
      fn =
        (fun () ->
          let m =
            Cornflakes.Send.deserialize ~cpu:none Apps.Proto.schema
              Apps.Proto.resp rx_frame
          in
          ignore (Wire.Dyn.get_int m "id");
          ignore (Wire.Dyn.get_list m "vals");
          Wire.Dyn.release ~cpu:none m);
    };
    {
      name = "cf-read-inplace";
      tracked = true;
      fn =
        (fun () ->
          Wire.Reader.validate rx_reader rx_frame;
          ignore (Wire.Reader.get_u64 rx_reader Apps.Proto.resp_id);
          let n = Wire.Reader.count rx_reader Apps.Proto.resp_vals in
          for j = 0 to n - 1 do
            ignore (Wire.Reader.elem_off_len rx_reader Apps.Proto.resp_vals ~j)
          done);
    };
    (* One frame through the receive ring and straight back: DMA-visible
       buffer claimed from the ring pool, released at refcount 0. *)
    {
      name = "cf-rx-deliver";
      tracked = true;
      fn =
        (fun () ->
          Nic.Device.rx_deliver rxq rx_wire ~off:0 ~len:1024 ~src:0
            ~deliver:release_frame);
    };
    (* Paired: arena chunk from the bump pointer (mass reset) vs recycled
       through the size-class free list. *)
    {
      name = "arena-copy-bump";
      tracked = true;
      fn =
        (fun () ->
          ignore (Mem.Arena.copy_in ~cpu:none arena arena_src);
          Mem.Arena.reset arena);
    };
    {
      name = "arena-copy-recycled";
      tracked = true;
      fn =
        (fun () ->
          let c = Mem.Arena.copy_in ~cpu:none arena arena_src in
          Mem.Arena.recycle arena c);
    };
    {
      name = "nic-post-txd-batched-x8";
      tracked = true;
      fn =
        (fun () ->
          for i = 0 to 7 do
            let txd = Nic.Device.txd_acquire nic in
            Nic.Device.txd_push txd nic_bufs.(i);
            nic_txds.(i) <- Some txd
          done;
          let txds =
            Array.map
              (function Some t -> t | None -> assert false)
              nic_txds
          in
          Nic.Device.post_txd_batch nic txds ~n:8;
          Sim.Engine.run_all nic_engine);
    };
    (* Paired end-to-end: the acceptance benchmark. *)
    {
      name = "cf-serialize+send-unpooled";
      tracked = true;
      fn = make_send_loop ~pooled:false ();
    };
    {
      name = "cf-serialize+send";
      tracked = true;
      fn = make_send_loop ~pooled:true ();
    };
    (* The same steady-state loop through a generated-style [send]: the
       folded writer body via [Send.send_planned]. *)
    {
      name = "cf-serialize+send-folded";
      tracked = true;
      fn = make_send_loop ~pooled:true ~write:Apps.Kv_rpc.Resp.write_folded ();
    };
    (* Generated service skeleton: validate-once + branchless method-table
       dispatch over the delivered GET request frame. *)
    {
      name = "cf-rpc-dispatch";
      tracked = true;
      fn =
        (fun () -> Apps.Kv_rpc.Kv_service.serve rpc_srv ~src:4 rpc_frame);
    };
    (* Generated client stub end to end: call_get stamps id + method word,
       folded-writer send, generated serve on the peer, deliver routes the
       reply to the pending call. *)
    {
      name = "cf-rpc-call-folded";
      tracked = true;
      fn = make_rpc_call_loop ();
    };
    (* The event core alone: schedule and fire one event whose
       continuation was built once, as every recurring schedule site in
       the stack does. *)
    {
      name = "engine-event-prealloc";
      tracked = true;
      fn =
        (fun () ->
          Sim.Engine.schedule event_engine ~after:1 event_tick;
          Sim.Engine.run_all event_engine);
    };
    {
      name = "zipf-sample";
      tracked = false;
      fn = (fun () -> ignore (Sim.Dist.Zipf.sample zipf zipf_rng));
    };
    {
      name = "cache-hierarchy-touch-2KB";
      tracked = false;
      fn =
        (fun () ->
          Memmodel.Cpu.stream cache_cpu Memmodel.Cpu.Copy ~addr:(1 lsl 22)
            ~len:2048);
    };
    (* The miss path: each op streams the next 2 KB of a 128 MB region,
       four times the default L3, so every line misses L1, L2 and L3. *)
    {
      name = "cache-hierarchy-stream-miss";
      tracked = true;
      fn =
        (fun () ->
          miss_addr := (!miss_addr + 2048) land ((1 lsl 27) - 1);
          Memmodel.Cpu.stream cache_cpu Memmodel.Cpu.Copy ~addr:!miss_addr
            ~len:2048);
    };
    (* Last: once built, its fixture stays live, and a large live heap
       slows the GC stabilization before every timing sample. *)
    {
      name = "kv-store-find-hit";
      tracked = true;
      fn =
        (fun () ->
          let store, window = Lazy.force find_fixture in
          (* A prime stride visits every key, in scattered order. *)
          find_next := (!find_next + 7919) land (find_keys - 1);
          if
            Kvstore.Store.find ~cpu:none store window
              ~off:(!find_next * find_klen) ~len:find_klen
            < 0
          then failwith "microbench: store key missing");
    };
  ]

(* One bechamel pass over a fresh benchmark suite: returns the OLS ns/op
   estimates keyed by benchmark name. Rows are timed one at a time, each
   after one untimed call, so a row that builds its fixture on first use
   builds it outside the timing, and the fixture is not yet live while
   the rows before it are timed. *)
let ns_pass ~quick ~seed () =
  let open Bechamel in
  let benchmarks = make_benchmarks ~seed () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let quota = if quick then 0.25 else 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let estimates = Hashtbl.create (List.length benchmarks) in
  List.iter
    (fun b ->
      b.fn ();
      let raw =
        Benchmark.all cfg instances (Test.make ~name:b.name (Staged.stage b.fn))
      in
      Hashtbl.iter (Hashtbl.replace estimates)
        (Analyze.all ols Toolkit.Instance.monotonic_clock raw))
    benchmarks;
  estimates

(* [rounds] repeats the wall-clock passes and keeps each benchmark's
   minimum estimate: timing noise is strictly additive (preemption, cache
   pollution from neighbors), so the min is the stable statistic — gating
   a single noisy sample against a ±20 % tolerance flags phantom
   regressions on small benches. Words/op is deterministic and measured
   once. *)
let run ?(rounds = 1) ~quick ~seed () =
  let open Bechamel in
  let benchmarks = make_benchmarks ~seed () in
  let iters = if quick then 5_000 else 20_000 in
  (* Words/op jobs: index into a fresh suite per job (the shared scratch
     above is single-domain); results merge back in suite order. *)
  let words =
    Par.Pool.map
      (fun i ->
        let fresh = make_benchmarks ~seed () in
        words_per_op ~iters (List.nth fresh i).fn)
      (Array.init (List.length benchmarks) Fun.id)
  in
  let results =
    List.mapi
      (fun i b ->
        {
          r_name = b.name;
          r_tracked = b.tracked;
          ns_per_op = Float.nan;
          words_per_op = words.(i);
        })
      benchmarks
  in
  for _ = 1 to max 1 rounds do
    let analyzed = ns_pass ~quick ~seed () in
    List.iter
      (fun r ->
        match
          Option.bind (Hashtbl.find_opt analyzed r.r_name) Analyze.OLS.estimates
        with
        | Some [ est ] ->
            r.ns_per_op <-
              (if Float.is_nan r.ns_per_op then est
               else Float.min r.ns_per_op est)
        | _ -> ())
      results
  done;
  print_endline
    "== Bechamel microbenchmarks (real wall-clock + minor words of this impl) ==";
  Printf.printf "  %-32s %12s %16s\n" "benchmark" "ns/op" "minor words/op";
  List.iter
    (fun r ->
      Printf.printf "  %-32s %12.1f %16.1f\n" r.r_name r.ns_per_op
        r.words_per_op)
    results;
  results

(* --- BENCH_micro.json + baseline gate ---------------------------------- *)

let json_file = "BENCH_micro.json"

let write_json results =
  let oc = open_out json_file in
  Printf.fprintf oc "{\n  \"schema\": \"cornflakes-bench-micro/1\",\n";
  Printf.fprintf oc "  \"benchmarks\": [\n";
  let n = List.length results in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"name\": %S, \"tracked\": %b, \"ns_per_op\": %.1f, \
         \"minor_words_per_op\": %.1f}%s\n"
        r.r_name r.r_tracked r.ns_per_op r.words_per_op
        (if i = n - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" json_file

(* Minimal scanner for the baseline file: pull (name, ns_per_op,
   minor_words_per_op) triples out of the benchmark objects without a JSON
   dependency. *)
let parse_baseline path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let entries = ref [] in
  let find_from sub pos =
    let sl = String.length sub in
    let rec go i =
      if i + sl > String.length text then None
      else if String.sub text i sl = sub then Some (i + sl)
      else go (i + 1)
    in
    go pos
  in
  let number_at vstart =
    let vend = ref vstart in
    while
      !vend < String.length text
      && (match text.[!vend] with
         | '0' .. '9' | '.' | '-' | 'e' | '+' -> true
         | _ -> false)
    do
      incr vend
    done;
    (float_of_string (String.sub text vstart (!vend - vstart)), !vend)
  in
  let rec scan pos =
    match find_from "\"name\": \"" pos with
    | None -> ()
    | Some nstart -> (
        let nend = String.index_from text nstart '"' in
        let name = String.sub text nstart (nend - nstart) in
        let ns =
          match find_from "\"ns_per_op\": " nend with
          | None -> Float.nan
          | Some vstart -> fst (number_at vstart)
        in
        match find_from "\"minor_words_per_op\": " nend with
        | None -> ()
        | Some vstart ->
            let words, vend = number_at vstart in
            entries := (name, ns, words) :: !entries;
            scan vend)
  in
  scan 0;
  List.rev !entries

let gate_against_baseline results ~baseline_path =
  match parse_baseline baseline_path with
  | exception Sys_error msg ->
      Printf.eprintf "baseline %s unreadable: %s\n" baseline_path msg;
      exit 1
  | baseline ->
      let tolerance = 1.20 in
      let words_of name =
        List.find_map
          (fun (n, _, w) -> if n = name then Some w else None)
          baseline
      in
      let ns_of name =
        List.find_map
          (fun (n, ns, _) ->
            if n = name && not (Float.is_nan ns) then Some ns else None)
          baseline
      in
      (* ns/op deltas vs the baseline machine. Raw wall-clock depends on
         the host, so each tracked bench's now/base ratio is normalized by
         the median ratio across tracked benches before the +20% tolerance
         applies: a uniform machine-speed shift cancels out, one bench
         regressing against its peers does not. *)
      print_endline "\nns/op vs baseline (tracked benches gated, median-normalized):";
      List.iter
        (fun r ->
          match ns_of r.r_name with
          | Some base when base > 0.0 && not (Float.is_nan r.ns_per_op) ->
              Printf.printf "  %-32s %10.1f -> %10.1f (%+.0f%%)\n" r.r_name
                base r.ns_per_op
                (100.0 *. ((r.ns_per_op /. base) -. 1.0))
          | _ -> ())
        results;
      let ns_ratios =
        List.filter_map
          (fun r ->
            if not r.r_tracked then None
            else
              match ns_of r.r_name with
              | Some base when base > 0.0 && not (Float.is_nan r.ns_per_op) ->
                  Some (r.r_name, base, r.ns_per_op, r.ns_per_op /. base)
              | _ -> None)
          results
      in
      let ns_regressions =
        match ns_ratios with
        | [] -> []
        | _ ->
            let sorted =
              List.sort compare (List.map (fun (_, _, _, q) -> q) ns_ratios)
            in
            let median = List.nth sorted (List.length sorted / 2) in
            let median = if median > 0.0 then median else 1.0 in
            List.filter_map
              (fun (name, base, now, q) ->
                if q /. median > tolerance then Some (name, base, now)
                else None)
              ns_ratios
      in
      let regressions =
        List.filter_map
          (fun r ->
            if not r.r_tracked then None
            else
              match words_of r.r_name with
              | None -> None (* new benchmark: nothing to gate against *)
              | Some base ->
                  if r.words_per_op > (base *. tolerance) +. 1.0 then
                    Some (r.r_name, base, r.words_per_op)
                  else None)
          results
      in
      Printf.printf
        "\nbaseline gate (%s, words/op + normalized ns/op, +20%% tolerance): "
        baseline_path;
      if regressions = [] && ns_regressions = [] then print_endline "OK"
      else begin
        print_endline "FAIL";
        if regressions <> [] then begin
          print_endline "  minor words/op:";
          List.iter
            (fun (name, base, now) ->
              Printf.printf "  %-32s %10.1f -> %10.1f (%+.0f%%)\n" name base
                now
                (100.0 *. ((now /. base) -. 1.0)))
            regressions
        end;
        if ns_regressions <> [] then begin
          print_endline "  ns/op (median-normalized):";
          List.iter
            (fun (name, base, now) ->
              Printf.printf "  %-32s %10.1f -> %10.1f (%+.0f%%)\n" name base
                now
                (100.0 *. ((now /. base) -. 1.0)))
            ns_regressions
        end;
        exit 1
      end

type result = {
  offered_rps : float;
  achieved_rps : float;
  achieved_gbps : float;
  hist : Stats.Histogram.t;
  sent : int;
  completed : int;
  retransmits : int;
  abandoned : int;
}

let p99_ns r = if Stats.Histogram.count r.hist = 0 then 0 else Stats.Histogram.percentile r.hist 0.99

let p50_ns r = if Stats.Histogram.count r.hist = 0 then 0 else Stats.Histogram.percentile r.hist 0.50

let to_point r =
  {
    Stats.Curve.offered = r.offered_rps;
    achieved = r.achieved_rps;
    p50_ns = p50_ns r;
    p99_ns = p99_ns r;
    mean_ns = Stats.Histogram.mean r.hist;
  }

(* An id-matched request awaiting its response: a slot in the run's
   id-indexed ring ([Sim.Id_ring]), with its give-up continuation (for the
   retry layer) built once with the slot. *)
type call = {
  mutable busy : bool;
  mutable id : int;
  mutable sent_at : int;
  mutable on_give_up : unit -> unit;
  give_up : unit -> unit;
}

and ctx = {
  engine : Sim.Engine.t;
  hist : Stats.Histogram.t;
  warmup_abs : int;
  end_abs : int;
  mutable sent : int;
  mutable completed : int;
  mutable resp_bytes : int;
  mutable next_id : int;
  pending : (ctx, call) Sim.Id_ring.t; (* when parse_id is given *)
  reliab : Net.Reliab.t option;
  retries0 : int; (* reliab counter baselines, for per-run deltas *)
  give_ups0 : int;
}

let fresh_id ctx =
  let id = ctx.next_id in
  ctx.next_id <- ctx.next_id + 1;
  id

let nothing () = ()

let free c =
  c.busy <- false;
  c.on_give_up <- nothing

let new_call (_ : ctx) =
  let rec c =
    {
      busy = false;
      id = 0;
      sent_at = 0;
      on_give_up = nothing;
      give_up =
        (fun () ->
          let k = c.on_give_up in
          free c;
          k ());
    }
  in
  c

(* Register id-matched request [id], sent now. *)
let pend ctx ~id ~on_give_up =
  let c = Sim.Id_ring.claim ctx.pending ctx ~id in
  c.busy <- true;
  c.id <- id;
  c.sent_at <- Sim.Engine.now ctx.engine;
  c.on_give_up <- on_give_up;
  c

(* The send time of pending request [id], which is no longer pending; -1
   when [id] is unknown (already answered, given up, or never sent). *)
let take_sent ctx ~id =
  if Sim.Id_ring.mem ctx.pending ~id then begin
    let c = Sim.Id_ring.get ctx.pending ~id in
    free c;
    c.sent_at
  end
  else -1

(* Install the response handler on a client endpoint. [fifo] is this
   client's in-order queue when id parsing is not available. [on_complete]
   lets the closed-loop driver issue a follow-up request. *)
let install_rx ctx client ~parse_id ~fifo ~on_complete =
  Net.Transport.set_rx client (fun ~src:_ buf ->
      let now = Sim.Engine.now ctx.engine in
      let send_ns =
        match parse_id with
        | Some parse -> begin
            match parse buf with
            | id ->
                (* Acknowledge first: a duplicate response (retransmitted
                   request, fabric-duplicated frame) acks as `Duplicate`
                   and finds no pending entry, so it is counted once. *)
                (match ctx.reliab with
                | Some r -> ignore (Net.Reliab.ack r ~id)
                | None -> ());
                take_sent ctx ~id
            | exception _ -> -1
          end
        | None -> ( match Queue.take_opt fifo with Some t -> t | None -> -1)
      in
      if send_ns >= 0 && send_ns >= ctx.warmup_abs && now <= ctx.end_abs
      then begin
        ctx.completed <- ctx.completed + 1;
        ctx.resp_bytes <- ctx.resp_bytes + Mem.Pinned.Buf.len buf;
        Stats.Histogram.record ctx.hist (now - send_ns)
      end;
      Mem.Pinned.Buf.decr_ref ~cpu:Memmodel.Cpu.none
        ~site:"Driver.response_done" buf;
      on_complete ())

let issue ?(on_give_up = nothing) ctx client ~server ~send ~parse_id ~fifo =
  let id = fresh_id ctx in
  match parse_id with
  | None ->
      (* Retries need id-matched completions ([check_reliab]). *)
      Queue.add (Sim.Engine.now ctx.engine) fifo;
      ctx.sent <- ctx.sent + 1;
      send client ~dst:server ~id
  | Some _ -> (
      let c = pend ctx ~id ~on_give_up in
      ctx.sent <- ctx.sent + 1;
      match ctx.reliab with
      | None -> send client ~dst:server ~id
      | Some r ->
          Net.Reliab.track r ~id
            ~send:(fun () -> send client ~dst:server ~id)
            ~give_up:c.give_up)

let make_ctx ?reliab engine ~duration_ns ~warmup_ns =
  let now = Sim.Engine.now engine in
  {
    engine;
    hist = Stats.Histogram.create ();
    warmup_abs = now + warmup_ns;
    end_abs = now + duration_ns;
    sent = 0;
    completed = 0;
    resp_bytes = 0;
    next_id = 1;
    pending =
      Sim.Id_ring.create ~make:new_call
        ~occupied:(fun c -> c.busy)
        ~id_of:(fun c -> c.id);
    reliab;
    retries0 = (match reliab with Some r -> Net.Reliab.retries r | None -> 0);
    give_ups0 = (match reliab with Some r -> Net.Reliab.give_ups r | None -> 0);
  }

let finish ctx ~offered_rps =
  Sim.Engine.run_all ctx.engine;
  let window_s = float_of_int (ctx.end_abs - ctx.warmup_abs) /. 1e9 in
  {
    offered_rps;
    achieved_rps = float_of_int ctx.completed /. window_s;
    achieved_gbps = float_of_int (ctx.resp_bytes * 8) /. window_s /. 1e9;
    hist = ctx.hist;
    sent = ctx.sent;
    completed = ctx.completed;
    retransmits =
      (match ctx.reliab with Some r -> Net.Reliab.retries r - ctx.retries0 | None -> 0);
    abandoned =
      (match ctx.reliab with Some r -> Net.Reliab.give_ups r - ctx.give_ups0 | None -> 0);
  }

let check_reliab ~who ~reliab ~parse_id =
  match (reliab, parse_id) with
  | Some _, None ->
      invalid_arg (who ^ ": retries need id-matched completions (parse_id)")
  | _ -> ()

let open_loop ?reliab engine ~clients ~server ~rate_rps ~duration_ns ~warmup_ns
    ~rng ~send ~parse_id =
  if clients = [] then invalid_arg "Driver.open_loop: no clients";
  check_reliab ~who:"Driver.open_loop" ~reliab ~parse_id;
  (* Connection-oriented transports handshake now, during warmup, so
     establishment never lands in a measured latency window (no-op for
     UDP). *)
  List.iter (fun c -> Net.Transport.connect c ~peer:server) clients;
  let ctx = make_ctx ?reliab engine ~duration_ns ~warmup_ns in
  let per_client_mean_ns =
    float_of_int (List.length clients) /. rate_rps *. 1e9
  in
  List.iter
    (fun client ->
      let fifo = Queue.create () in
      let rng = Sim.Rng.split rng in
      install_rx ctx client ~parse_id ~fifo ~on_complete:(fun () -> ());
      let rec arrival () =
        if Sim.Engine.now engine < ctx.end_abs then begin
          issue ctx client ~server ~send ~parse_id ~fifo;
          let gap = Sim.Dist.exponential rng ~mean:per_client_mean_ns in
          Sim.Engine.schedule engine ~after:(max 1 (int_of_float gap)) arrival
        end
      in
      let first = Sim.Dist.exponential rng ~mean:per_client_mean_ns in
      Sim.Engine.schedule engine ~after:(max 1 (int_of_float first)) arrival)
    clients;
  finish ctx ~offered_rps:rate_rps

(* Open loop over a packed connection table (see [Conns]): one aggregate
   Poisson arrival process at [rate_rps] picks a uniformly random
   connection per arrival — the superposition of n independent Poisson
   streams at rate/n each, without n timer chains in the heap. The chosen
   connection's private RNG stream generates the request (key choice, op
   mix), so the sequence each connection emits is a function of the seed
   alone. Connections multiplex over the (few) physical client endpoints
   round-robin.

   Responses must be id-matched: a dispatcher fanning requests across
   shards can reorder completions, so the FIFO fallback of [open_loop]
   would mis-pair latencies. *)
let open_loop_conns ?reliab engine ~conns ~clients ~server ~rate_rps
    ~duration_ns ~warmup_ns ~rng ~send ~parse_id =
  if clients = [] then invalid_arg "Driver.open_loop_conns: no clients";
  let clients_arr = Array.of_list clients in
  let n_clients = Array.length clients_arr in
  List.iter (fun c -> Net.Transport.connect c ~peer:server) clients;
  let ctx = make_ctx ?reliab engine ~duration_ns ~warmup_ns in
  let parse = Some parse_id in
  List.iter
    (fun client ->
      install_rx ctx client ~parse_id:parse ~fifo:(Queue.create ())
        ~on_complete:(fun () -> ()))
    clients;
  let master = Sim.Rng.split rng in
  let mean_gap_ns = 1e9 /. rate_rps in
  let rec arrival () =
    if Sim.Engine.now engine < ctx.end_abs then begin
      let conn = Sim.Rng.int master (Conns.length conns) in
      let client = clients_arr.(conn mod n_clients) in
      let id = fresh_id ctx in
      let c = pend ctx ~id ~on_give_up:nothing in
      ctx.sent <- ctx.sent + 1;
      let do_send () =
        Conns.with_stream conns conn (fun crng ->
            send ~conn crng client ~dst:server ~id)
      in
      (match ctx.reliab with
      | None -> do_send ()
      | Some r -> Net.Reliab.track r ~id ~send:do_send ~give_up:c.give_up);
      let gap = Sim.Dist.exponential master ~mean:mean_gap_ns in
      Sim.Engine.schedule engine ~after:(max 1 (int_of_float gap)) arrival
    end
  in
  Sim.Engine.schedule engine ~after:1 arrival;
  finish ctx ~offered_rps:rate_rps

let closed_loop ?reliab engine ~clients ~server ~outstanding ~duration_ns
    ~warmup_ns ~rng ~send ~parse_id =
  if clients = [] then invalid_arg "Driver.closed_loop: no clients";
  check_reliab ~who:"Driver.closed_loop" ~reliab ~parse_id;
  ignore rng;
  List.iter (fun c -> Net.Transport.connect c ~peer:server) clients;
  let ctx = make_ctx ?reliab engine ~duration_ns ~warmup_ns in
  List.iter
    (fun client ->
      let fifo = Queue.create () in
      let rec next () =
        if Sim.Engine.now engine < ctx.end_abs then
          (* An abandoned request still frees its slot, or a lossy run
             would strangle the closed loop. *)
          issue ctx client ~server ~send ~parse_id ~fifo ~on_give_up:next
      in
      install_rx ctx client ~parse_id ~fifo ~on_complete:next;
      for k = 1 to outstanding do
        Sim.Engine.schedule engine ~after:(k * 211) (fun () ->
            issue ctx client ~server ~send ~parse_id ~fifo ~on_give_up:next)
      done)
    clients;
  finish ctx ~offered_rps:Float.infinity

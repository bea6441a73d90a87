type t = {
  tr : Net.Transport.t;
  ep : Net.Endpoint.t;
  cpu : Memmodel.Cpu.t;
  engine : Sim.Engine.t;
  (* FIFO of waiting requests: a ring over two parallel arrays (sources
     and buffers), [q_len] entries from [q_head], grown by doubling. *)
  mutable q_src : int array;
  mutable q_buf : Mem.Pinned.Buf.t array;
  mutable q_head : int;
  mutable q_len : int;
  queue_limit : int;
  mutable busy : bool;
  mutable handler : src:int -> Mem.Pinned.Buf.t -> unit;
  mutable served : int;
  mutable dropped : int;
  mutable rejected : int;
  mutable service_ns_total : float;
  mutable busy_ns : int;
  (* Fault injection: extra ns to stall each request (slow consumer). *)
  mutable service_fault : (now:int -> int) option;
  (* The end of a service slot, built once with the server: the slot's
     held responses go to the NIC, then the next request starts. Both
     happen at the same instant, so one event carries them. *)
  slot_done : unit -> unit;
}

(* Buf.t has no dummy value, so a grown ring is seeded with the entry
   being added; slots outside the live window are never read. *)
let enqueue t ~src buf =
  let cap = Array.length t.q_src in
  if t.q_len = cap then begin
    let ncap = max 16 (2 * cap) in
    let srcs = Array.make ncap 0 and bufs = Array.make ncap buf in
    for i = 0 to t.q_len - 1 do
      let j = (t.q_head + i) mod cap in
      srcs.(i) <- t.q_src.(j);
      bufs.(i) <- t.q_buf.(j)
    done;
    t.q_src <- srcs;
    t.q_buf <- bufs;
    t.q_head <- 0
  end;
  let j = (t.q_head + t.q_len) mod Array.length t.q_src in
  t.q_src.(j) <- src;
  t.q_buf.(j) <- buf;
  t.q_len <- t.q_len + 1

let service t =
  if t.q_len = 0 then t.busy <- false
  else begin
    let src = t.q_src.(t.q_head) and buf = t.q_buf.(t.q_head) in
    t.q_head <- (t.q_head + 1) mod Array.length t.q_src;
    t.q_len <- t.q_len - 1;
    t.busy <- true;
    let c0 = Memmodel.Cpu.cycles t.cpu in
    Net.Endpoint.charge_rx t.ep;
    Net.Endpoint.begin_hold t.ep;
    (try t.handler ~src buf
     with e ->
       Net.Endpoint.release_hold t.ep ~after:0;
       raise e);
    Mem.Arena.reset (Net.Endpoint.arena t.ep);
    let cycles = Memmodel.Cpu.cycles t.cpu -. c0 in
    let dt =
      int_of_float
        (ceil (Memmodel.Params.cycles_to_ns (Memmodel.Cpu.params t.cpu) cycles))
    in
    (* A slow-consumer fault stretches the whole slot: the response is
       held back and the next request starts later, so rx buffers and
       response references stay pinned for the stall too. *)
    let dt =
      match t.service_fault with
      | None -> dt
      | Some f -> dt + f ~now:(Sim.Engine.now t.engine)
    in
    Net.Endpoint.end_hold t.ep;
    t.served <- t.served + 1;
    t.service_ns_total <- t.service_ns_total +. float_of_int dt;
    t.busy_ns <- t.busy_ns + dt;
    Sim.Engine.schedule t.engine ~after:dt t.slot_done
  end
[@@alloc_free]

let finish_slot t =
  Net.Endpoint.submit_deferred t.ep;
  service t

let on_rx t ~src buf =
  if t.q_len >= t.queue_limit then begin
    t.dropped <- t.dropped + 1;
    Mem.Pinned.Buf.decr_ref ~cpu:Memmodel.Cpu.none ~site:"Server.queue_drop" buf
  end
  else begin
    enqueue t ~src buf;
    if not t.busy then service t
  end

let create ?(queue_limit = 4096) tr =
  let ep = Net.Transport.endpoint tr in
  let rec t =
    {
      tr;
      ep;
      cpu = Net.Endpoint.cpu ep;
      engine = Net.Endpoint.engine ep;
      q_src = [||];
      q_buf = [||];
      q_head = 0;
      q_len = 0;
      queue_limit;
      busy = false;
      handler =
        (fun ~src:_ buf ->
          Mem.Pinned.Buf.decr_ref ~cpu:Memmodel.Cpu.none
            ~site:"Server.no_handler" buf);
      served = 0;
      dropped = 0;
      rejected = 0;
      service_ns_total = 0.0;
      busy_ns = 0;
      service_fault = None;
      slot_done = (fun () -> finish_slot t);
    }
  in
  Net.Transport.set_rx tr (fun ~src buf -> on_rx t ~src buf);
  t

let set_handler t f = t.handler <- f

let handler t = t.handler

let set_service_fault t f = t.service_fault <- f

let served t = t.served

let dropped t = t.dropped

let reject t = t.rejected <- t.rejected + 1

let rejected t = t.rejected

let mean_service_ns t =
  if t.served = 0 then 0.0 else t.service_ns_total /. float_of_int t.served

let busy_ns t = t.busy_ns

let cpu t = t.cpu

let endpoint t = t.ep

let transport t = t.tr

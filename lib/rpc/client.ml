(* Client-side call state shared by every generated stub.

   A generated [call_<m>] hands its request to {!call}: it assigns a
   request id, registers the reply continuation, stamps the id + method
   word into the request envelope by field index, then hands the call
   slot's send continuation either to [Net.Reliab] (retry/backoff,
   deadline-clamped) or straight to the transport. Responses come back
   through the generated [deliver], which validates the frame into the pooled [reader] exactly once and
   routes on the echoed id here — {!complete} acks the retry layer and
   runs the continuation with the in-place reader, so a unary round trip
   allocates nothing on the reply path beyond the validation itself.

   Streamed methods register a {!Stream.collector}; each chunk's seq word
   (from the response envelope's [seq] field) is checked for order, the
   last bit resolves the call. *)

type reply_handler =
  | Unary of (Wire.Reader.t -> unit)
  | Streamed of {
      on_chunk : Wire.Reader.t -> unit;
      on_done : ok:bool -> unit;
      coll : Stream.collector;
    }

(* One pending call, in an id-indexed slot ring ([Sim.Id_ring]). The slot
   is occupied from the call until its reply, give-up or deadline; a
   deadline timer of its own is cancelled when the call resolves. It holds
   the call's request and destination while the call is live, so its send
   continuation (built once with the slot, like its give-up continuation)
   re-sends the call's own request on every retransmission. *)
type call = {
  mutable live : bool; (* awaiting its reply *)
  mutable id : int;
  mutable handler : reply_handler;
  mutable deadline_timer : int; (* [Sim.Engine] handle, without a retry layer *)
  mutable req : Wire.Dyn.t; (* [Wire.Dyn.vacant] once resolved *)
  mutable dst : int;
  send : unit -> unit; (* send [req] to [dst] through the folded writer *)
  give_up : unit -> unit; (* retry layer exhausted or deadline hit *)
}

and t = {
  tr : Net.Transport.t;
  config : Cornflakes.Config.t;
  write : Cornflakes.Send.writer; (* the request envelope's folded writer *)
  req_id : int; (* request envelope field indices *)
  req_op : int;
  engine : Sim.Engine.t option;
  reliab : Net.Reliab.t option;
  reader : Wire.Reader.t;
  calls_ring : (t, call) Sim.Id_ring.t;
  mutable pending : int;
  mutable next_id : int;
  mutable calls : int;
  mutable replies : int;
  mutable chunks : int;
  mutable abandoned : int;
  mutable orphans : int;
  mutable misordered : int;
}

let no_handler = Unary (fun (_ : Wire.Reader.t) -> ())

let resolve t c =
  c.live <- false;
  (match t.engine with
  | Some engine -> Sim.Engine.cancel engine c.deadline_timer
  | None -> ());
  t.pending <- t.pending - 1;
  c.handler <- no_handler;
  c.req <- Wire.Dyn.vacant

let abandon t c =
  if c.live then begin
    let handler = c.handler in
    resolve t c;
    t.abandoned <- t.abandoned + 1;
    match handler with Unary _ -> () | Streamed s -> s.on_done ~ok:false
  end

let send t c =
  Cornflakes.Send.send_planned t.config t.tr ~dst:c.dst c.req
    ~write:t.write

let new_call t =
  let rec c =
    {
      live = false;
      id = 0;
      handler = no_handler;
      deadline_timer = 0;
      req = Wire.Dyn.vacant;
      dst = 0;
      send = (fun () -> send t c);
      give_up = (fun () -> abandon t c);
    }
  in
  c

let create ?(config = Cornflakes.Config.default) ?engine ?reliab ~resp
    ~req_id ~req_op ~write tr =
  {
    tr;
    config;
    write;
    req_id;
    req_op;
    engine;
    reliab;
    reader = Wire.Reader.create ~cpu:(Net.Transport.cpu tr) resp;
    calls_ring =
      Sim.Id_ring.create ~make:new_call
        ~occupied:(fun c -> c.live)
        ~id_of:(fun c -> c.id);
    pending = 0;
    next_id = 1;
    calls = 0;
    replies = 0;
    chunks = 0;
    abandoned = 0;
    orphans = 0;
    misordered = 0;
  }

let transport t = t.tr
let config t = t.config
let reader t = t.reader

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let start t ?deadline_ms ~handler ~op ~dst req =
  let id = fresh_id t in
  let c = Sim.Id_ring.claim t.calls_ring t ~id in
  c.live <- true;
  c.id <- id;
  c.handler <- handler;
  c.req <- req;
  c.dst <- dst;
  t.pending <- t.pending + 1;
  t.calls <- t.calls + 1;
  Wire.Dyn.set_int_of_int req t.req_id id;
  Wire.Dyn.set_int_at req t.req_op op;
  let deadline_ns = Option.map Deadline.ns_of_ms deadline_ms in
  (match t.reliab with
  | Some rl ->
      Net.Reliab.track ?deadline_ns rl ~id ~send:c.send ~give_up:c.give_up
  | None -> (
      c.send ();
      (* No retry layer: the deadline still resolves the call
         deterministically, provided an engine clock is attached. *)
      match (deadline_ns, t.engine) with
      | Some d, Some engine ->
          c.deadline_timer <- Sim.Engine.timer engine ~after:d c.give_up
      | _ -> ()));
  id

let call t ?deadline_ms ~op ~dst ~on_reply req =
  start t ?deadline_ms ~handler:(Unary on_reply) ~op ~dst req

let call_stream t ?deadline_ms ~op ~dst ~on_chunk ~on_done req =
  start t ?deadline_ms
    ~handler:(Streamed { on_chunk; on_done; coll = Stream.collector () })
    ~op ~dst req

let ack_reliab t ~id =
  match t.reliab with
  | Some rl -> ignore (Net.Reliab.ack rl ~id)
  | None -> ()

let complete ?seq_word t ~id r =
  if not (Sim.Id_ring.mem t.calls_ring ~id) then t.orphans <- t.orphans + 1
  else
    let c = Sim.Id_ring.get t.calls_ring ~id in
    match c.handler with
    | Unary f ->
        resolve t c;
        ack_reliab t ~id;
        t.replies <- t.replies + 1;
        f r
    | Streamed s -> (
        match seq_word with
        | None ->
            (* A streamed reply without a seq word is a framing error. *)
            t.misordered <- t.misordered + 1
        | Some w -> (
            match Stream.observe s.coll w with
            | `Chunk ->
                t.chunks <- t.chunks + 1;
                s.on_chunk r
            | `Last ->
                resolve t c;
                ack_reliab t ~id;
                t.chunks <- t.chunks + 1;
                t.replies <- t.replies + 1;
                s.on_chunk r;
                s.on_done ~ok:true
            | `Out_of_order | `After_end -> t.misordered <- t.misordered + 1))

let outstanding t = t.pending
let calls t = t.calls
let replies t = t.replies
let chunks t = t.chunks
let abandoned t = t.abandoned
let orphans t = t.orphans
let misordered t = t.misordered

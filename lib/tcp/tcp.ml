(* Simplified Demikernel-style TCP (see tcp.mli). The per-frame data path
   allocates nothing beyond the pinned-buffer handles it hands on:

   - The retransmission queue is a ring of reusable frame slots ([rtx],
     [rtx_first], [rtx_n]) that doubles when full. A slot keeps its frame
     record and its zero-copy array from one frame to the next.
   - A cumulative ACK pops the acked prefix of the ring in seq order: frame
     ends never decrease, so the frames it covers are always a prefix.
     Each is RTT-sampled and released as it is popped.
   - Headers are written and parsed as little-endian u32s on the buffer's
     backing bytes ([set_u32]/[get_u32]), with no [View] or closure.
   - In-order bytes that need reassembly collect in [asm]; [drain_assembly]
     reads each record's length prefix where it lies and copies the record
     straight from there into a reassembly-pool buffer, so buffered bytes
     are copied once, not once per drain. *)

let header_len = 16

let mss = 8900 (* stream bytes per frame; fits a jumbo with headers *)

let initial_rto_ns = 200_000

(* The floor stays well above queueing-tail RTTs (tens of microseconds
   under load): an RTO below the latency tail causes spurious
   retransmission storms. Fast loss recovery below the floor comes from
   fast retransmit, not the timer. *)
let min_rto_ns = 100_000

let max_rto_ns = 5_000_000

let dupack_threshold = 3

let max_retries = 10

let flag_syn = 1

let flag_ack = 2

let flag_data = 4

type state = Syn_sent | Established | Closed

type frame = {
  mutable f_seq : int;
  mutable f_len : int;
  (* The frame's gather: a staging [f_head] (packet + TCP headroom first)
     plus the first [f_zc_n] entries of [f_zc], its zero-copy segments.
     One connection-owned reference on each. The slot is reused once the
     frame is acknowledged, array included; only the live prefix is read. *)
  mutable f_head : Mem.Pinned.Buf.t;
  mutable f_zc : Mem.Pinned.Buf.t array;
  mutable f_zc_n : int;
  mutable sent_at : int;
  mutable retries : int;
  (* RefSan holds covering the payload while the frame sits in the
     retransmission queue: the NIC may re-read these bytes until the ACK. *)
  mutable f_holds : int option list;
}

(* The RTT estimate lives in an all-float record, stored flat, so updating
   it on every ACK boxes nothing. *)
type rtt = { mutable srtt_ns : float; mutable rttvar_ns : float }

type conn = {
  stack : stack;
  peer : int;
  mutable state : state;
  mutable snd_nxt : int;
  mutable snd_una : int;
  (* The retransmission queue: [rtx_n] frames in flight, ascending seq,
     the oldest at [rtx.(rtx_first)], in a power-of-two ring of reusable
     slots that doubles when full. *)
  mutable rtx : frame array;
  mutable rtx_first : int;
  mutable rtx_n : int;
  mutable rcv_nxt : int;
  ooo : (int, Bytes.t) Hashtbl.t; (* out-of-order payloads by seq *)
  (* In-order bytes not yet framed into messages: [asm_len] bytes of [asm]
     from [asm_off]. Records are parsed where they lie. *)
  mutable asm : Bytes.t;
  mutable asm_off : int;
  mutable asm_len : int;
  mutable pending : Wire.Payload.t list list;
      (* messages queued pre-establishment; [Zero_copy] payloads keep their
         pinned references until the handshake completes and they frame *)
  mutable retransmissions : int;
  mutable timer_armed : bool;
  rto_k : unit -> unit; (* the retransmission timer event, built once *)
  (* RTT estimation (RFC 6298 style) and fast retransmit. *)
  rtt : rtt;
  mutable rto_ns : int;
  mutable dup_acks : int;
  mutable last_ack : int;
}

and stack = {
  ep : Net.Endpoint.t;
  engine : Sim.Engine.t;
  conns : (int, conn) Hashtbl.t;
  pool : Mem.Pinned.Pool.t; (* reassembled-message delivery buffers *)
  mutable on_message : conn -> Mem.Pinned.Buf.t -> unit;
  mutable tcp_transport : Net.Transport.t option; (* cached handle *)
}

(* --- Frame emission ---------------------------------------------------- *)

(* Header fields are little-endian u32s written and read on the buffer's
   backing bytes: no [View] and no per-call closure. *)
let set_u32 b pos x = Bytes.set_int32_le b pos (Int32.of_int x)

let get_u32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFF_FFFF

let write_tcp_header buf ~off ~flags ~seq ~ack ~len =
  let b = Mem.Pinned.Buf.backing buf
  and base = Mem.Pinned.Buf.backing_off buf + off in
  set_u32 b base flags;
  set_u32 b (base + 4) seq;
  set_u32 b (base + 8) ack;
  set_u32 b (base + 12) len;
  Mem.Pinned.Buf.note_write ~site:"Tcp.write_header" buf ~off ~len:header_len
[@@alloc_free]

(* Retransmission-queue holds exempt the header prefix of the first
   segment: the stack legitimately rewrites the packet and TCP headers on
   every (re)transmission, and only payload bytes must stay frozen. *)
let rtx_header_skip = Net.Packet.header_len + header_len

let take_frame_holds frame =
  if Sanitizer.Refsan.is_enabled () && frame.f_holds = [] then begin
    let hold ~skip seg = Mem.Pinned.Buf.hold ~site:"Tcp.rtx_queue" ~skip seg in
    let head = hold ~skip:rtx_header_skip frame.f_head in
    frame.f_holds <-
      head :: List.init frame.f_zc_n (fun i -> hold ~skip:0 frame.f_zc.(i))
  end

let release_frame_holds frame =
  if frame.f_holds <> [] then begin
    List.iter Mem.Pinned.Buf.release_hold frame.f_holds;
    frame.f_holds <- []
  end

(* The simulation does not CPU-charge TCP protocol work: ACKs,
   retransmissions, reassembly and the releases the ACK path performs all
   run on the unmetered meter. Data frames charge the endpoint's meter. *)
let unmetered = Memmodel.Cpu.none

(* Post a frame's gather (header write + NIC post), for its first
   transmission and every retransmission alike. The NIC's completion
   releases one reference per segment, so take one first: the connection
   keeps its own until the ACK. *)
let post_frame ~cpu conn frame ~flags =
  write_tcp_header frame.f_head ~off:Net.Packet.header_len ~flags
    ~seq:frame.f_seq ~ack:conn.rcv_nxt ~len:frame.f_len;
  Mem.Pinned.Buf.incr_ref ~cpu ~site:"Tcp.post_frame" frame.f_head;
  for i = 0 to frame.f_zc_n - 1 do
    Mem.Pinned.Buf.incr_ref ~cpu ~site:"Tcp.post_frame" frame.f_zc.(i)
  done;
  frame.sent_at <- Sim.Engine.now conn.stack.engine;
  Net.Endpoint.send_inline_on ~cpu conn.stack.ep ~dst:conn.peer
    ~head:frame.f_head ~zc:frame.f_zc ~zc_n:frame.f_zc_n
[@@alloc_free]

(* Drop the connection's own reference on every segment of [frame]. *)
let release_frame_refs ~site frame =
  Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site frame.f_head;
  for i = 0 to frame.f_zc_n - 1 do
    Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site frame.f_zc.(i)
  done

let send_control conn ~flags ~seq =
  let staging =
    Net.Endpoint.alloc_tx_on ~cpu:unmetered ~site:"Tcp.send_control"
      conn.stack.ep ~len:(Net.Packet.header_len + header_len)
  in
  write_tcp_header staging ~off:Net.Packet.header_len ~flags ~seq
    ~ack:conn.rcv_nxt ~len:0;
  Net.Endpoint.send_inline_on ~cpu:unmetered conn.stack.ep ~dst:conn.peer
    ~head:staging ~zc:[||] ~zc_n:0

(* --- The retransmission queue ------------------------------------------ *)

(* The [i]th frame in flight, 0 being the oldest. *)
let rtx_frame conn i =
  Array.unsafe_get conn.rtx
    ((conn.rtx_first + i) land (Array.length conn.rtx - 1))

(* Double the ring, keeping the frames in flight in order at its front.
   New slots start out pointing at [filler], a live handle that is only
   a placeholder until the slot is first filled. *)
let rtx_grow conn ~filler =
  let n = Array.length conn.rtx in
  conn.rtx <-
    Array.init
      (max 4 (2 * n))
      (fun i ->
        if i < n then rtx_frame conn i
        else
          {
            f_seq = 0;
            f_len = 0;
            f_head = filler;
            f_zc = [||];
            f_zc_n = 0;
            sent_at = 0;
            retries = 0;
            f_holds = [];
          });
  conn.rtx_first <- 0

(* Queue the frame carrying the next [len] stream bytes: the first free
   slot takes over [head] and a copy of [zc.(0 .. zc_n - 1)] (the caller's
   array is only valid now). *)
let rtx_push conn ~len ~head ~zc ~zc_n =
  if conn.rtx_n = Array.length conn.rtx then rtx_grow conn ~filler:head;
  let f = rtx_frame conn conn.rtx_n in
  conn.rtx_n <- conn.rtx_n + 1;
  f.f_seq <- conn.snd_nxt;
  f.f_len <- len;
  f.f_head <- head;
  if Array.length f.f_zc < zc_n then f.f_zc <- Array.sub zc 0 zc_n
  else Array.blit zc 0 f.f_zc 0 zc_n;
  f.f_zc_n <- zc_n;
  f.sent_at <- 0;
  f.retries <- 0;
  conn.snd_nxt <- conn.snd_nxt + len;
  f

(* Dequeue the oldest frame. Its slot stays valid until the next push. *)
let rtx_pop conn =
  let f = rtx_frame conn 0 in
  conn.rtx_first <- (conn.rtx_first + 1) land (Array.length conn.rtx - 1);
  conn.rtx_n <- conn.rtx_n - 1;
  f

(* --- Retransmission ---------------------------------------------------- *)

let arm_timer conn =
  if not conn.timer_armed then begin
    conn.timer_armed <- true;
    Sim.Engine.schedule conn.stack.engine ~after:conn.rto_ns conn.rto_k
  end

let check_rto conn =
  if conn.state <> Closed && conn.rtx_n > 0 then begin
    let oldest = rtx_frame conn 0 in
    let now = Sim.Engine.now conn.stack.engine in
    if now - oldest.sent_at >= conn.rto_ns then begin
      if oldest.retries >= max_retries then begin
        conn.state <- Closed;
        while conn.rtx_n > 0 do
          let f = rtx_pop conn in
          release_frame_holds f;
          release_frame_refs ~site:"Tcp.abort" f
        done
      end
      else begin
        oldest.retries <- oldest.retries + 1;
        conn.retransmissions <- conn.retransmissions + 1;
        (* Exponential backoff on timeout-driven retransmission. *)
        conn.rto_ns <- min max_rto_ns (conn.rto_ns * 2);
        post_frame ~cpu:unmetered conn oldest ~flags:(flag_data lor flag_ack);
        arm_timer conn
      end
    end
    else arm_timer conn
  end

(* --- Sending ------------------------------------------------------------ *)

(* Split the record's logical byte runs into MSS-sized frames, preserving
   byte order on the wire: copied runs go into staging buffers, zero-copy
   runs become their own gather entries (sliced at frame boundaries). *)
type run = R_copy of Mem.View.t | R_zc of Mem.Pinned.Buf.t

let run_len = function
  | R_copy v -> v.Mem.View.len
  | R_zc b -> Mem.Pinned.Buf.len b

let split_run run at =
  match run with
  | R_copy v ->
      ( R_copy (Mem.View.sub v ~off:0 ~len:at),
        R_copy (Mem.View.sub v ~off:at ~len:(v.Mem.View.len - at)) )
  | R_zc b ->
      ( R_zc (Mem.Pinned.Buf.sub b ~off:0 ~len:at),
        R_zc (Mem.Pinned.Buf.sub b ~off:at ~len:(Mem.Pinned.Buf.len b - at)) )

(* Queue the record's frames on the retransmission queue. *)
let queue_frames ~cpu conn runs =
  (* Greedily pack runs into frames of at most [mss] stream bytes. *)
  let frames = ref [] in
  let pending = ref runs in
  while !pending <> [] do
    let budget = ref mss in
    let frame_runs = ref [] in
    while !pending <> [] && !budget > 0 do
      match !pending with
      | [] -> ()
      | run :: rest ->
          let len = run_len run in
          if len <= !budget then begin
            frame_runs := run :: !frame_runs;
            budget := !budget - len;
            pending := rest
          end
          else begin
            let head, tail = split_run run !budget in
            frame_runs := head :: !frame_runs;
            budget := 0;
            pending := tail :: rest
          end
    done;
    frames := List.rev !frame_runs :: !frames
  done;
  List.iter
    (fun frame_runs ->
      let f_len = List.fold_left (fun a r -> a + run_len r) 0 frame_runs in
      (* Coalesce leading copies (plus headers) into the first staging
         buffer; each later copy run gets its own staging entry so the wire
         byte order matches the stream. *)
      let rec build segments current_copies rest =
        match rest with
        | R_copy v :: tl -> build segments (v :: current_copies) tl
        | R_zc b :: tl ->
            let segments = flush segments current_copies ~first:(segments = []) in
            (* The connection owns one reference per zero-copy slice. *)
            Mem.Pinned.Buf.incr_ref ~cpu ~site:"Tcp.frame_ref" b;
            build (b :: segments) [] tl
        | [] -> flush segments current_copies ~first:(segments = [])
      and flush segments copies ~first =
        let copies = List.rev copies in
        let data_len = List.fold_left (fun a v -> a + v.Mem.View.len) 0 copies in
        if (not first) && data_len = 0 then segments
        else begin
          let headroom =
            if first then Net.Packet.header_len + header_len else 0
          in
          let staging =
            Net.Endpoint.alloc_tx_on ~cpu ~site:"Tcp.staging" conn.stack.ep
              ~len:(headroom + data_len)
          in
          let off = ref headroom in
          List.iter
            (fun v ->
              Mem.Pinned.Buf.blit_from ~cpu ~site:"Tcp.staging" staging ~src:v
                ~dst_off:!off;
              off := !off + v.Mem.View.len)
            copies;
          staging :: segments
        end
      in
      match List.rev (build [] [] frame_runs) with
      | head :: zc ->
          let zc = Array.of_list zc in
          ignore
            (rtx_push conn ~len:f_len ~head ~zc ~zc_n:(Array.length zc) : frame)
      | [] -> assert false (* [flush ~first:true] always stages a head *))
    (List.rev !frames)

let transmit_message ~cpu conn payloads =
  let total = List.fold_left (fun acc p -> acc + Wire.Payload.len p) 0 payloads in
  (* Record framing: 4-byte length prefix. *)
  let prefix = Bytes.create 4 in
  set_u32 prefix 0 total;
  let space = Mem.Registry.space (Net.Endpoint.registry conn.stack.ep) in
  let prefix_view =
    Mem.View.make
      ~addr:(Mem.Addr_space.reserve space ~bytes:4)
      ~data:prefix ~off:0 ~len:4
  in
  let runs =
    R_copy prefix_view
    :: List.map
         (function
           | Wire.Payload.Copied v | Wire.Payload.Literal v -> R_copy v
           | Wire.Payload.Zero_copy b -> R_zc b)
         payloads
  in
  let first = conn.rtx_n in
  queue_frames ~cpu conn runs;
  (* The frames hold their own references on every zero-copy slice, so the
     ownership passed in by the caller can be dropped now. *)
  List.iter (fun p -> Wire.Payload.release ~cpu p) payloads;
  for i = first to conn.rtx_n - 1 do
    take_frame_holds (rtx_frame conn i)
  done;
  for i = first to conn.rtx_n - 1 do
    post_frame ~cpu conn (rtx_frame conn i) ~flags:(flag_data lor flag_ack)
  done;
  arm_timer conn

(* --- Receiving ----------------------------------------------------------- *)

let deliver conn buf = conn.stack.on_message conn buf

(* Append [len] bytes of [b] to the in-order stream, first sliding the
   unparsed bytes to the front when the tail lacks room, and growing only
   when that is not enough. *)
let asm_add conn b ~off ~len =
  let need = conn.asm_len + len in
  if conn.asm_off + need > Bytes.length conn.asm then begin
    let dst =
      if need > Bytes.length conn.asm then
        Bytes.create (max need (2 * Bytes.length conn.asm))
      else conn.asm
    in
    Bytes.blit conn.asm conn.asm_off dst 0 conn.asm_len;
    conn.asm <- dst;
    conn.asm_off <- 0
  end;
  Bytes.blit b off conn.asm (conn.asm_off + conn.asm_len) len;
  conn.asm_len <- need

(* Deliver every complete length-prefixed record of the in-order stream,
   each copied out of the bytes where it lies into a reassembly buffer. *)
let rec drain_assembly conn =
  if conn.asm_len >= 4 then begin
    let len = get_u32 conn.asm conn.asm_off in
    if conn.asm_len >= 4 + len then begin
      let src_off = conn.asm_off + 4 in
      conn.asm_off <- src_off + len;
      conn.asm_len <- conn.asm_len - 4 - len;
      let buf =
        Mem.Pinned.Buf.alloc ~cpu:unmetered ~site:"Tcp.reassemble"
          conn.stack.pool ~len:(max 1 len)
      in
      Mem.Pinned.Buf.fill_subbytes ~cpu:unmetered ~site:"Tcp.reassemble" buf
        conn.asm ~src_off ~len;
      if conn.asm_len = 0 then conn.asm_off <- 0;
      let buf =
        if len = Mem.Pinned.Buf.len buf then buf
        else Mem.Pinned.Buf.sub buf ~off:0 ~len
      in
      deliver conn buf;
      drain_assembly conn
    end
  end

let rec accept_in_order conn =
  if Hashtbl.length conn.ooo > 0 then
    match Hashtbl.find conn.ooo conn.rcv_nxt with
    | exception Not_found -> ()
    | payload ->
        Hashtbl.remove conn.ooo conn.rcv_nxt;
        conn.rcv_nxt <- conn.rcv_nxt + Bytes.length payload;
        asm_add conn payload ~off:0 ~len:(Bytes.length payload);
        drain_assembly conn;
        accept_in_order conn
[@@alloc_free]

let handle_data conn buf ~seq ~payload_off ~payload_len =
  if payload_len = 0 then
    Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.rx" buf
  else if seq = conn.rcv_nxt then begin
    conn.rcv_nxt <- conn.rcv_nxt + payload_len;
    let b = Mem.Pinned.Buf.backing buf
    and pos = Mem.Pinned.Buf.backing_off buf + payload_off in
    (* Fast path: the frame holds exactly one whole record and the stream
       is at a record boundary — deliver a window into the receive buffer,
       zero-copy. *)
    let at_boundary = conn.asm_len = 0 && Hashtbl.length conn.ooo = 0 in
    let record_len = if payload_len >= 4 then get_u32 b pos else -1 in
    if at_boundary && record_len >= 0 && 4 + record_len = payload_len then begin
      let msg = Mem.Pinned.Buf.sub buf ~off:(payload_off + 4) ~len:record_len in
      deliver conn msg
    end
    else begin
      asm_add conn b ~off:pos ~len:payload_len;
      Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.rx" buf;
      drain_assembly conn
    end;
    accept_in_order conn;
    send_control conn ~flags:flag_ack ~seq:conn.snd_nxt
  end
  else begin
    (* Out of order (or duplicate): stash the bytes if new, re-ACK. *)
    if seq > conn.rcv_nxt && not (Hashtbl.mem conn.ooo seq) then
      Hashtbl.replace conn.ooo seq
        (Bytes.sub (Mem.Pinned.Buf.backing buf)
           (Mem.Pinned.Buf.backing_off buf + payload_off)
           payload_len);
    Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.rx" buf;
    send_control conn ~flags:flag_ack ~seq:conn.snd_nxt
  end

(* RFC 6298-style smoothed RTT; samples only from frames that were never
   retransmitted (Karn's algorithm). *)
let sample_rtt conn frame =
  if frame.retries = 0 then begin
    let est = conn.rtt in
    let rtt = float_of_int (Sim.Engine.now conn.stack.engine - frame.sent_at) in
    if est.srtt_ns = 0.0 then begin
      est.srtt_ns <- rtt;
      est.rttvar_ns <- rtt /. 2.0
    end
    else begin
      est.rttvar_ns <-
        (0.75 *. est.rttvar_ns) +. (0.25 *. Float.abs (est.srtt_ns -. rtt));
      est.srtt_ns <- (0.875 *. est.srtt_ns) +. (0.125 *. rtt)
    end;
    conn.rto_ns <-
      Int.max min_rto_ns
        (Int.min max_rto_ns
           (int_of_float (est.srtt_ns +. (4.0 *. est.rttvar_ns))))
  end

(* A cumulative ACK. Frames sit in ascending seq and their ends never
   decrease, so the frames it covers are a prefix of the queue: pop them
   oldest first, sampling the RTT and releasing each in turn. *)
let handle_ack conn ~ack ~pure =
  if ack > conn.snd_una then begin
    conn.dup_acks <- 0;
    conn.last_ack <- ack;
    conn.snd_una <- ack;
    while
      conn.rtx_n > 0
      &&
      let f = rtx_frame conn 0 in
      f.f_seq + f.f_len <= ack
    do
      let f = rtx_pop conn in
      sample_rtt conn f;
      release_frame_holds f;
      release_frame_refs ~site:"Tcp.acked" f
    done;
    if conn.rtx_n > 0 then arm_timer conn
  end
  else if pure && ack = conn.snd_una && conn.rtx_n > 0 then begin
    (* Duplicate cumulative ACK — counted only on payload-free segments,
       as in real TCP (a data frame repeating the cumulative ACK is normal
       pipelining, not a loss signal). After three, fast-retransmit the
       first unacknowledged frame without waiting for the RTO. *)
    conn.dup_acks <- conn.dup_acks + 1;
    if conn.dup_acks >= dupack_threshold then begin
      conn.dup_acks <- 0;
      let oldest = rtx_frame conn 0 in
      if oldest.retries < max_retries then begin
        oldest.retries <- oldest.retries + 1;
        conn.retransmissions <- conn.retransmissions + 1;
        post_frame ~cpu:unmetered conn oldest ~flags:(flag_data lor flag_ack)
      end
    end
  end
[@@alloc_free]

let flush_pending conn =
  let pending = List.rev conn.pending in
  conn.pending <- [];
  (* Queued during the handshake and sent on establishment, outside any
     request's service window. *)
  List.iter
    (fun sources -> transmit_message ~cpu:unmetered conn sources)
    pending

let isn_for id = 1000 + (id * 101)

let rto_fired conn =
  conn.timer_armed <- false;
  check_rto conn

let new_conn stack ~peer ~state ~isn =
  let rec conn =
    {
      stack;
      peer;
      state;
      snd_nxt = isn;
      snd_una = isn;
      rtx = [||];
      rtx_first = 0;
      rtx_n = 0;
      rcv_nxt = 0;
      ooo = Hashtbl.create 8;
      asm = Bytes.create 256;
      asm_off = 0;
      asm_len = 0;
      pending = [];
      retransmissions = 0;
      timer_armed = false;
      rto_k = (fun () -> rto_fired conn);
      rtt = { srtt_ns = 0.0; rttvar_ns = 0.0 };
      rto_ns = initial_rto_ns;
      dup_acks = 0;
      last_ack = 0;
    }
  in
  conn

let handle_frame stack ~src buf =
  let frame_len = Mem.Pinned.Buf.len buf in
  if frame_len < header_len then
    Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.rx" buf
  else begin
    let b = Mem.Pinned.Buf.backing buf
    and base = Mem.Pinned.Buf.backing_off buf in
    let flags = Char.code (Bytes.get b base) in
    let seq = get_u32 b (base + 4) in
    let ack = get_u32 b (base + 8) in
    let payload_len = get_u32 b (base + 12) in
    if flags land flag_syn <> 0 && flags land flag_ack = 0 then begin
      (* Passive open. *)
      let conn =
        match Hashtbl.find_opt stack.conns src with
        | Some c -> c
        | None ->
            let isn = isn_for (Net.Endpoint.id stack.ep) in
            let c = new_conn stack ~peer:src ~state:Established ~isn in
            (* The SYN-ACK consumes one sequence number. *)
            c.snd_nxt <- isn + 1;
            c.snd_una <- isn + 1;
            Hashtbl.replace stack.conns src c;
            c
      in
      conn.state <- Established;
      conn.rcv_nxt <- seq + 1;
      send_control conn ~flags:(flag_syn lor flag_ack) ~seq:(conn.snd_nxt - 1);
      Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.rx" buf
    end
    else
      match Hashtbl.find stack.conns src with
      | exception Not_found ->
          Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.rx" buf
      | conn ->
          if flags land flag_syn <> 0 && flags land flag_ack <> 0 then begin
            (* SYN-ACK completes the active open. *)
            if conn.state = Syn_sent then begin
              conn.state <- Established;
              conn.rcv_nxt <- seq + 1;
              handle_ack conn ~ack ~pure:false;
              send_control conn ~flags:flag_ack ~seq:conn.snd_nxt;
              flush_pending conn
            end;
            Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.rx" buf
          end
          else begin
            if flags land flag_ack <> 0 then
              handle_ack conn ~ack
                ~pure:(flags land flag_data = 0 || payload_len = 0);
            if flags land flag_data <> 0 && payload_len > 0 then begin
              if header_len + payload_len > frame_len then
                Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.rx" buf
              else
                handle_data conn buf ~seq ~payload_off:header_len ~payload_len
            end
            else Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.rx" buf
          end
  end

let send_message ~cpu conn payloads =
  match conn.state with
  | Closed -> invalid_arg "Tcp.Conn.send_message: connection closed"
  | Syn_sent -> conn.pending <- payloads :: conn.pending
  | Established -> transmit_message ~cpu conn payloads

let stack_connect stack ~peer =
  match Hashtbl.find_opt stack.conns peer with
  | Some c -> c
  | None ->
      let isn = isn_for (Net.Endpoint.id stack.ep) in
      let conn = new_conn stack ~peer ~state:Syn_sent ~isn in
      (* SYN consumes one sequence number. *)
      conn.snd_nxt <- isn + 1;
      conn.snd_una <- isn + 1;
      Hashtbl.replace stack.conns peer conn;
      send_control conn ~flags:flag_syn ~seq:isn;
      conn

(* The transport's per-destination connection: open on first use; a
   connection torn down by retry exhaustion is reopened (the ISN function
   is deterministic, so a reconnect replays identically under a seed). *)
let conn_for stack ~peer =
  match Hashtbl.find stack.conns peer with
  | c when c.state <> Closed -> c
  | _ ->
      Hashtbl.remove stack.conns peer;
      stack_connect stack ~peer
  | exception Not_found -> stack_connect stack ~peer

module Conn = struct
  type t = conn

  let peer t = t.peer

  let is_established t = t.state = Established

  let send_message t payloads =
    send_message ~cpu:(Net.Endpoint.cpu t.stack.ep) t payloads

  let unacked_bytes t = t.snd_nxt - t.snd_una

  let retransmissions t = t.retransmissions

  let rto_ns t = t.rto_ns

  let srtt_ns t = t.rtt.srtt_ns
end

module Stack = struct
  type t = stack

  let attach ep =
    let registry = Net.Endpoint.registry ep in
    let pool =
      Mem.Pinned.Pool.create
        (Mem.Registry.space registry)
        ~name:(Printf.sprintf "tcp%d-asm" (Net.Endpoint.id ep))
        (* Reassembled messages up to 256 KB; larger records would need a
           streaming delivery API. *)
        ~classes:[ (16384, 512); (65536, 64); (262144, 16) ]
    in
    Mem.Registry.register registry pool;
    let stack =
      {
        ep;
        engine = Net.Endpoint.engine ep;
        conns = Hashtbl.create 16;
        pool;
        on_message =
          (fun _ buf ->
            Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.drop_message"
              buf);
        tcp_transport = None;
      }
    in
    Net.Endpoint.set_rx ep (fun ~src buf -> handle_frame stack ~src buf);
    stack

  let connect t ~peer = stack_connect t ~peer

  let set_on_message t f = t.on_message <- f

  let conn t ~peer = Hashtbl.find_opt t.conns peer

  let receive t ~src buf = handle_frame t ~src buf

  let endpoint t = t.ep
end

(* --- Transport view ------------------------------------------------------ *)

(* Bytes of the [u32] record-length prefix ([transport]'s framing). *)
let record_prefix_len = 4

(* Headroom the caller leaves in the first inline segment: packet header +
   TCP header + the record's length prefix, so the single-frame fast path
   sends object header, copied fields, and all wire framing as one gather
   entry (serialize-and-send, stream edition). *)
let transport_headroom = Net.Packet.header_len + header_len + record_prefix_len

(* Largest reassembly-pool class (see [Stack.attach]). *)
let max_msg_len = 262144

let write_record_prefix buf ~off ~record_len =
  set_u32 (Mem.Pinned.Buf.backing buf)
    (Mem.Pinned.Buf.backing_off buf + off)
    record_len;
  Mem.Pinned.Buf.note_write ~site:"Tcp.record_prefix" buf ~off
    ~len:record_prefix_len

(* Single-frame fast path: the whole record (plus its prefix) fits one MSS
   and the connection is up. The frame takes over the caller's reference on
   every segment — exactly the ownership a [send_message] round trip would
   end with, minus the intermediate incr/decr pair. Its queue slot keeps its
   own copy of the zero-copy slots (the caller's array is only valid now), so
   the first transmission and any retransmission post the same gather. The
   record prefix is written before retransmission holds are taken; only the
   packet + TCP header prefix stays exempt ([rtx_header_skip]) for later
   rewrites. *)
let fast_path_send ~cpu conn ~head ~zc ~zc_n ~payload_len =
  let f = rtx_push conn ~len:payload_len ~head ~zc ~zc_n in
  take_frame_holds f;
  post_frame ~cpu conn f ~flags:(flag_data lor flag_ack);
  arm_timer conn
[@@alloc_free]

(* Slow path: hand the gather to [send_message] as zero-copy payloads. The
   head's headroom is scratch, not record bytes — narrow past it
   ([Buf.sub] shares the refcount, so the caller's reference rides along
   and [Payload.release] returns it after framing). *)
let payloads_of_inline ~cpu ~head ~zc ~zc_n =
  let rest = List.init zc_n (fun i -> Wire.Payload.Zero_copy zc.(i)) in
  let hlen = Mem.Pinned.Buf.len head in
  if hlen > transport_headroom then
    Wire.Payload.Zero_copy
      (Mem.Pinned.Buf.sub ~site:"Tcp.trim_headroom" head ~off:transport_headroom
         ~len:(hlen - transport_headroom))
    :: rest
  else begin
    Mem.Pinned.Buf.decr_ref ~cpu ~site:"Tcp.trim_headroom" head;
    rest
  end

let transport_send_inline stack ~dst ~head ~zc ~zc_n =
  if Mem.Pinned.Buf.len head < transport_headroom then
    invalid_arg "Tcp.transport: head shorter than the headroom";
  let cpu = Net.Endpoint.cpu stack.ep in
  let conn = conn_for stack ~peer:dst in
  let total = ref (Mem.Pinned.Buf.len head) in
  for i = 0 to zc_n - 1 do
    total := !total + Mem.Pinned.Buf.len zc.(i)
  done;
  let record_len = !total - transport_headroom in
  if record_len > max_msg_len then
    invalid_arg
      (Printf.sprintf "Tcp.transport: %d-byte record exceeds max_msg_len %d"
         record_len max_msg_len);
  let payload_len = record_prefix_len + record_len in
  if conn.state = Established && payload_len <= mss then begin
    write_record_prefix head
      ~off:(Net.Packet.header_len + header_len)
      ~record_len;
    fast_path_send ~cpu conn ~head ~zc ~zc_n ~payload_len
  end
  else send_message ~cpu conn (payloads_of_inline ~cpu ~head ~zc ~zc_n)

(* The conventional path carries no transport headroom: every byte of every
   segment is record payload, and [send_message] stages the framing. *)
let transport_send_extra stack ~dst ~head ~zc ~zc_n =
  let conn = conn_for stack ~peer:dst in
  send_message ~cpu:(Net.Endpoint.cpu stack.ep) conn
    (Wire.Payload.Zero_copy head
    :: List.init zc_n (fun i -> Wire.Payload.Zero_copy zc.(i)))

let transport_send_string stack ~dst s =
  let conn = conn_for stack ~peer:dst in
  let space = Mem.Registry.space (Net.Endpoint.registry stack.ep) in
  send_message ~cpu:unmetered conn [ Wire.Payload.of_string space s ]

let transport stack =
  match stack.tcp_transport with
  | Some tr -> tr
  | None ->
      let tr =
        {
          Net.Transport.tr_name = "tcp";
          tr_ep = stack.ep;
          tr_headroom = transport_headroom;
          tr_max_msg_len = max_msg_len;
          tr_connect = (fun ~peer -> ignore (conn_for stack ~peer));
          tr_send_inline =
            (fun ~dst ~head ~zc ~zc_n ->
              transport_send_inline stack ~dst ~head ~zc ~zc_n);
          tr_send_extra =
            (fun ~dst ~head ~zc ~zc_n ->
              transport_send_extra stack ~dst ~head ~zc ~zc_n);
          tr_send_string = (fun ~dst s -> transport_send_string stack ~dst s);
          tr_set_rx =
            (fun f ->
              stack.on_message <- (fun conn buf -> f ~src:conn.peer buf));
        }
      in
      stack.tcp_transport <- Some tr;
      tr

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
  f_seq : int;
  f_len : int;
  f_segments : Mem.Pinned.Buf.t list; (* one connection-owned ref each *)
  mutable sent_at : int;
  mutable retries : int;
  (* RefSan holds covering the payload while the frame sits in the
     retransmission queue: the NIC may re-read these bytes until the ACK. *)
  mutable f_holds : int option list;
}

type conn = {
  stack : stack;
  peer : int;
  mutable state : state;
  mutable snd_nxt : int;
  mutable snd_una : int;
  mutable inflight : frame list; (* ascending seq *)
  mutable rcv_nxt : int;
  ooo : (int, string) Hashtbl.t; (* out-of-order payloads by seq *)
  assembly : Buffer.t; (* in-order bytes not yet framed into messages *)
  mutable pending : Wire.Payload.t list list;
      (* messages queued pre-establishment; [Zero_copy] payloads keep their
         pinned references until the handshake completes and they frame *)
  mutable retransmissions : int;
  mutable timer_armed : bool;
  rto_k : unit -> unit; (* the retransmission timer event, built once *)
  (* RTT estimation (RFC 6298 style) and fast retransmit. *)
  mutable srtt_ns : float;
  mutable rttvar_ns : float;
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

let write_tcp_header buf ~off ~flags ~seq ~ack ~len =
  let v = Mem.Pinned.Buf.view buf in
  let b = v.Mem.View.data and base = v.Mem.View.off + off in
  Bytes.set b base (Char.chr flags);
  Bytes.set b (base + 1) '\000';
  Bytes.set b (base + 2) '\000';
  Bytes.set b (base + 3) '\000';
  let u32 o x =
    Bytes.set b (base + o) (Char.chr (x land 0xff));
    Bytes.set b (base + o + 1) (Char.chr ((x lsr 8) land 0xff));
    Bytes.set b (base + o + 2) (Char.chr ((x lsr 16) land 0xff));
    Bytes.set b (base + o + 3) (Char.chr ((x lsr 24) land 0xff))
  in
  u32 4 seq;
  u32 8 ack;
  u32 12 len;
  Mem.Pinned.Buf.note_write ~site:"Tcp.write_header" buf ~off ~len:header_len

(* Retransmission-queue holds exempt the header prefix of the first
   segment: the stack legitimately rewrites the packet and TCP headers on
   every (re)transmission, and only payload bytes must stay frozen. *)
let rtx_header_skip = Net.Packet.header_len + header_len

let take_frame_holds frame =
  if Sanitizer.Refsan.is_enabled () && frame.f_holds = [] then
    frame.f_holds <-
      List.mapi
        (fun i seg ->
          Mem.Pinned.Buf.hold ~site:"Tcp.rtx_queue"
            ~skip:(if i = 0 then rtx_header_skip else 0)
            seg)
        frame.f_segments

let release_frame_holds frame =
  List.iter Mem.Pinned.Buf.release_hold frame.f_holds;
  frame.f_holds <- []

(* The simulation does not CPU-charge TCP protocol work: ACKs,
   retransmissions, reassembly and the releases the ACK path performs all
   run on the unmetered meter. Data frames charge the endpoint's meter. *)
let unmetered = Memmodel.Cpu.none

let read_u32 (v : Mem.View.t) off =
  let b = v.Mem.View.data and base = v.Mem.View.off + off in
  Char.code (Bytes.get b base)
  lor (Char.code (Bytes.get b (base + 1)) lsl 8)
  lor (Char.code (Bytes.get b (base + 2)) lsl 16)
  lor (Char.code (Bytes.get b (base + 3)) lsl 24)

(* Post a frame's segments (header write + NIC post). The NIC's completion
   releases one reference per segment, so take one first: the connection
   keeps its own until the ACK. *)
let post_frame ~cpu conn frame ~flags =
  (match frame.f_segments with
  | first :: _ ->
      write_tcp_header first ~off:Net.Packet.header_len ~flags ~seq:frame.f_seq
        ~ack:conn.rcv_nxt ~len:frame.f_len
  | [] -> assert false);
  List.iter
    (fun seg -> Mem.Pinned.Buf.incr_ref ~cpu ~site:"Tcp.post_frame" seg)
    frame.f_segments;
  frame.sent_at <- Sim.Engine.now conn.stack.engine;
  Net.Endpoint.send_inline_header_on ~cpu conn.stack.ep ~dst:conn.peer
    ~segments:frame.f_segments

(* First transmission of a transport fast-path frame: same ownership moves
   as [post_frame], but the descriptor is filled straight from the
   serializer's zero-copy array ([Endpoint.send_inline_zc]) instead of a
   rebuilt segment list. Retransmissions go through [post_frame] using the
   frame's own segment list — the caller's array is only valid now. *)
let post_frame_zc conn frame ~flags ~head ~zc ~zc_n =
  write_tcp_header head ~off:Net.Packet.header_len ~flags ~seq:frame.f_seq
    ~ack:conn.rcv_nxt ~len:frame.f_len;
  let cpu = Net.Endpoint.cpu conn.stack.ep in
  List.iter
    (fun seg -> Mem.Pinned.Buf.incr_ref ~cpu ~site:"Tcp.post_frame" seg)
    frame.f_segments;
  frame.sent_at <- Sim.Engine.now conn.stack.engine;
  Net.Endpoint.send_inline_zc conn.stack.ep ~dst:conn.peer ~head ~zc ~zc_n

let send_control conn ~flags ~seq =
  let staging =
    Net.Endpoint.alloc_tx_on ~cpu:unmetered ~site:"Tcp.send_control"
      conn.stack.ep ~len:(Net.Packet.header_len + header_len)
  in
  write_tcp_header staging ~off:Net.Packet.header_len ~flags ~seq
    ~ack:conn.rcv_nxt ~len:0;
  Net.Endpoint.send_inline_header_on ~cpu:unmetered conn.stack.ep
    ~dst:conn.peer ~segments:[ staging ]

(* --- Retransmission ---------------------------------------------------- *)

let arm_timer conn =
  if not conn.timer_armed then begin
    conn.timer_armed <- true;
    Sim.Engine.schedule conn.stack.engine ~after:conn.rto_ns conn.rto_k
  end

let check_rto conn =
  match (conn.state, conn.inflight) with
  | Closed, _ | _, [] -> ()
  | _, oldest :: _ ->
      let now = Sim.Engine.now conn.stack.engine in
      if now - oldest.sent_at >= conn.rto_ns then begin
        if oldest.retries >= max_retries then begin
          conn.state <- Closed;
          List.iter
            (fun f ->
              release_frame_holds f;
              List.iter
                (fun seg ->
                  Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.abort" seg)
                f.f_segments)
            conn.inflight;
          conn.inflight <- []
        end
        else begin
          oldest.retries <- oldest.retries + 1;
          conn.retransmissions <- conn.retransmissions + 1;
          (* Exponential backoff on timeout-driven retransmission. *)
          conn.rto_ns <- min max_rto_ns (conn.rto_ns * 2);
          post_frame ~cpu:unmetered conn oldest
            ~flags:(flag_data lor flag_ack);
          arm_timer conn
        end
      end
      else arm_timer conn

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

let frames_of_runs ~cpu conn runs =
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
  let frames = List.rev !frames in
  List.map
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
      let segments = List.rev (build [] [] frame_runs) in
      let f =
        {
          f_seq = conn.snd_nxt;
          f_len;
          f_segments = segments;
          sent_at = 0;
          retries = 0;
          f_holds = [];
        }
      in
      conn.snd_nxt <- conn.snd_nxt + f_len;
      f)
    frames

let transmit_message ~cpu conn payloads =
  let total = List.fold_left (fun acc p -> acc + Wire.Payload.len p) 0 payloads in
  (* Record framing: 4-byte length prefix. *)
  let prefix = Bytes.create 4 in
  Bytes.set prefix 0 (Char.chr (total land 0xff));
  Bytes.set prefix 1 (Char.chr ((total lsr 8) land 0xff));
  Bytes.set prefix 2 (Char.chr ((total lsr 16) land 0xff));
  Bytes.set prefix 3 (Char.chr ((total lsr 24) land 0xff));
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
  let frames = frames_of_runs ~cpu conn runs in
  (* The frames hold their own references on every zero-copy slice, so the
     ownership passed in by the caller can be dropped now. *)
  List.iter (fun p -> Wire.Payload.release ~cpu p) payloads;
  conn.inflight <- conn.inflight @ frames;
  List.iter take_frame_holds frames;
  List.iter
    (fun f -> post_frame ~cpu conn f ~flags:(flag_data lor flag_ack))
    frames;
  arm_timer conn

(* --- Receiving ----------------------------------------------------------- *)

let deliver conn buf = conn.stack.on_message conn buf

(* Extract complete length-prefixed records from the assembly buffer. *)
let rec drain_assembly conn =
  let a = conn.assembly in
  if Buffer.length a >= 4 then begin
    let s = Buffer.contents a in
    let len =
      Char.code s.[0]
      lor (Char.code s.[1] lsl 8)
      lor (Char.code s.[2] lsl 16)
      lor (Char.code s.[3] lsl 24)
    in
    if Buffer.length a >= 4 + len then begin
      let record = String.sub s 4 len in
      Buffer.clear a;
      Buffer.add_substring a s (4 + len) (String.length s - 4 - len);
      let buf =
        Mem.Pinned.Buf.alloc ~cpu:unmetered ~site:"Tcp.reassemble"
          conn.stack.pool ~len:(max 1 len)
      in
      Mem.Pinned.Buf.fill ~cpu:unmetered ~site:"Tcp.reassemble" buf record;
      let buf =
        if len = Mem.Pinned.Buf.len buf then buf
        else Mem.Pinned.Buf.sub buf ~off:0 ~len
      in
      deliver conn buf;
      drain_assembly conn
    end
  end

let rec accept_in_order conn =
  match Hashtbl.find_opt conn.ooo conn.rcv_nxt with
  | None -> ()
  | Some payload ->
      Hashtbl.remove conn.ooo conn.rcv_nxt;
      conn.rcv_nxt <- conn.rcv_nxt + String.length payload;
      Buffer.add_string conn.assembly payload;
      drain_assembly conn;
      accept_in_order conn

let handle_data conn buf ~seq ~payload_off ~payload_len =
  if payload_len = 0 then
    Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.rx" buf
  else if seq = conn.rcv_nxt then begin
    conn.rcv_nxt <- conn.rcv_nxt + payload_len;
    (* Fast path: the frame holds exactly one whole record and the stream
       is at a record boundary — deliver a window into the receive buffer,
       zero-copy. *)
    let at_boundary =
      Buffer.length conn.assembly = 0 && Hashtbl.length conn.ooo = 0
    in
    let record_len =
      if payload_len >= 4 then read_u32 (Mem.Pinned.Buf.view buf) payload_off
      else -1
    in
    if at_boundary && record_len >= 0 && 4 + record_len = payload_len then begin
      let msg = Mem.Pinned.Buf.sub buf ~off:(payload_off + 4) ~len:record_len in
      deliver conn msg
    end
    else begin
      let v =
        Mem.View.sub (Mem.Pinned.Buf.view buf) ~off:payload_off ~len:payload_len
      in
      Buffer.add_string conn.assembly (Mem.View.to_string v);
      Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.rx" buf;
      drain_assembly conn
    end;
    accept_in_order conn;
    send_control conn ~flags:flag_ack ~seq:conn.snd_nxt
  end
  else begin
    (* Out of order (or duplicate): stash the bytes if new, re-ACK. *)
    if seq > conn.rcv_nxt && not (Hashtbl.mem conn.ooo seq) then begin
      let v =
        Mem.View.sub (Mem.Pinned.Buf.view buf) ~off:payload_off ~len:payload_len
      in
      Hashtbl.replace conn.ooo seq (Mem.View.to_string v)
    end;
    Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.rx" buf;
    send_control conn ~flags:flag_ack ~seq:conn.snd_nxt
  end

(* RFC 6298-style smoothed RTT; samples only from frames that were never
   retransmitted (Karn's algorithm). *)
let sample_rtt conn frame =
  if frame.retries = 0 then begin
    let rtt = float_of_int (Sim.Engine.now conn.stack.engine - frame.sent_at) in
    if conn.srtt_ns = 0.0 then begin
      conn.srtt_ns <- rtt;
      conn.rttvar_ns <- rtt /. 2.0
    end
    else begin
      conn.rttvar_ns <-
        (0.75 *. conn.rttvar_ns) +. (0.25 *. Float.abs (conn.srtt_ns -. rtt));
      conn.srtt_ns <- (0.875 *. conn.srtt_ns) +. (0.125 *. rtt)
    end;
    conn.rto_ns <-
      max min_rto_ns
        (min max_rto_ns
           (int_of_float (conn.srtt_ns +. (4.0 *. conn.rttvar_ns))))
  end

let handle_ack conn ~ack ~pure =
  if ack > conn.snd_una then begin
    conn.dup_acks <- 0;
    conn.last_ack <- ack;
    conn.snd_una <- ack;
    let acked, remaining =
      List.partition (fun f -> f.f_seq + f.f_len <= ack) conn.inflight
    in
    conn.inflight <- remaining;
    List.iter
      (fun f ->
        sample_rtt conn f;
        release_frame_holds f;
        List.iter
          (fun seg ->
            Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.acked" seg)
          f.f_segments)
      acked;
    if remaining <> [] then arm_timer conn
  end
  else if pure && ack = conn.snd_una && conn.inflight <> [] then begin
    (* Duplicate cumulative ACK — counted only on payload-free segments,
       as in real TCP (a data frame repeating the cumulative ACK is normal
       pipelining, not a loss signal). After three, fast-retransmit the
       first unacknowledged frame without waiting for the RTO. *)
    conn.dup_acks <- conn.dup_acks + 1;
    if conn.dup_acks >= dupack_threshold then begin
      conn.dup_acks <- 0;
      match conn.inflight with
      | oldest :: _ when oldest.retries < max_retries ->
          oldest.retries <- oldest.retries + 1;
          conn.retransmissions <- conn.retransmissions + 1;
          post_frame ~cpu:unmetered conn oldest
            ~flags:(flag_data lor flag_ack)
      | _ -> ()
    end
  end

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
      inflight = [];
      rcv_nxt = 0;
      ooo = Hashtbl.create 8;
      assembly = Buffer.create 256;
      pending = [];
      retransmissions = 0;
      timer_armed = false;
      rto_k = (fun () -> rto_fired conn);
      srtt_ns = 0.0;
      rttvar_ns = 0.0;
      rto_ns = initial_rto_ns;
      dup_acks = 0;
      last_ack = 0;
    }
  in
  conn

let handle_frame stack ~src buf =
  let v = Mem.Pinned.Buf.view buf in
  if v.Mem.View.len < header_len then
    Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.rx" buf
  else begin
    let flags = Char.code (Bytes.get v.Mem.View.data v.Mem.View.off) in
    let seq = read_u32 v 4 in
    let ack = read_u32 v 8 in
    let payload_len = read_u32 v 12 in
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
      match Hashtbl.find_opt stack.conns src with
      | None -> Mem.Pinned.Buf.decr_ref ~cpu:unmetered ~site:"Tcp.rx" buf
      | Some conn ->
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
              if header_len + payload_len > v.Mem.View.len then
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
  match Hashtbl.find_opt stack.conns peer with
  | Some c when c.state <> Closed -> c
  | Some _ ->
      Hashtbl.remove stack.conns peer;
      stack_connect stack ~peer
  | None -> stack_connect stack ~peer

module Conn = struct
  type t = conn

  let peer t = t.peer

  let is_established t = t.state = Established

  let send_message t payloads =
    send_message ~cpu:(Net.Endpoint.cpu t.stack.ep) t payloads

  let unacked_bytes t = t.snd_nxt - t.snd_una

  let retransmissions t = t.retransmissions

  let rto_ns t = t.rto_ns

  let srtt_ns t = t.srtt_ns
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

  let endpoint t = t.ep
end

(* --- Transport view ------------------------------------------------------ *)

let record_prefix_len = 4

(* Headroom the caller leaves in the first inline segment: packet header +
   TCP header + the record's length prefix, so the single-frame fast path
   sends object header, copied fields, and all wire framing as one gather
   entry (serialize-and-send, stream edition). *)
let transport_headroom = Net.Packet.header_len + header_len + record_prefix_len

(* Largest reassembly-pool class (see [Stack.attach]). *)
let max_msg_len = 262144

let write_record_prefix buf ~off ~record_len =
  let v = Mem.Pinned.Buf.view buf in
  let b = v.Mem.View.data and base = v.Mem.View.off + off in
  Bytes.set b base (Char.chr (record_len land 0xff));
  Bytes.set b (base + 1) (Char.chr ((record_len lsr 8) land 0xff));
  Bytes.set b (base + 2) (Char.chr ((record_len lsr 16) land 0xff));
  Bytes.set b (base + 3) (Char.chr ((record_len lsr 24) land 0xff));
  Mem.Pinned.Buf.note_write ~site:"Tcp.record_prefix" buf ~off
    ~len:record_prefix_len

(* Single-frame fast path: the whole record (plus its prefix) fits one MSS
   and the connection is up. The frame takes over the caller's reference on
   every segment — exactly the ownership a [send_message] round trip would
   end with, minus the intermediate incr/decr pair. The record prefix is
   written before retransmission holds are taken; only the packet + TCP
   header prefix stays exempt ([rtx_header_skip]) for later rewrites. *)
let fast_path_send conn ~segments ~payload_len ~post =
  let f =
    {
      f_seq = conn.snd_nxt;
      f_len = payload_len;
      f_segments = segments;
      sent_at = 0;
      retries = 0;
      f_holds = [];
    }
  in
  conn.snd_nxt <- conn.snd_nxt + payload_len;
  conn.inflight <- conn.inflight @ [ f ];
  take_frame_holds f;
  post f;
  arm_timer conn

(* Slow path: hand the segments to [send_message] as zero-copy payloads.
   The first inline segment's headroom is scratch, not record bytes —
   narrow past it ([Buf.sub] shares the refcount, so the caller's reference
   rides along and [Payload.release] returns it after framing). *)
let payloads_of_inline ~cpu segments =
  match segments with
  | [] -> []
  | first :: rest ->
      let flen = Mem.Pinned.Buf.len first in
      let head_payloads =
        if flen > transport_headroom then
          [
            Wire.Payload.Zero_copy
              (Mem.Pinned.Buf.sub ~site:"Tcp.trim_headroom" first
                 ~off:transport_headroom
                 ~len:(flen - transport_headroom));
          ]
        else begin
          Mem.Pinned.Buf.decr_ref ~cpu ~site:"Tcp.trim_headroom" first;
          []
        end
      in
      head_payloads @ List.map (fun b -> Wire.Payload.Zero_copy b) rest

let check_msg_len total =
  let record_len = total - transport_headroom in
  if record_len < 0 then
    invalid_arg "Tcp.transport: first segment shorter than the headroom";
  if record_len > max_msg_len then
    invalid_arg
      (Printf.sprintf "Tcp.transport: %d-byte record exceeds max_msg_len %d"
         record_len max_msg_len);
  record_len

let transport_send_inline stack ~dst ~segments =
  match segments with
  | [] -> invalid_arg "Tcp.transport: empty gather list"
  | first :: _ ->
      let cpu = Net.Endpoint.cpu stack.ep in
      let conn = conn_for stack ~peer:dst in
      let total =
        List.fold_left (fun a s -> a + Mem.Pinned.Buf.len s) 0 segments
      in
      let record_len = check_msg_len total in
      let payload_len = record_prefix_len + record_len in
      if
        conn.state = Established
        && payload_len <= mss
        && Mem.Pinned.Buf.len first >= transport_headroom
      then begin
        write_record_prefix first
          ~off:(Net.Packet.header_len + header_len)
          ~record_len;
        fast_path_send conn ~segments ~payload_len ~post:(fun f ->
            post_frame ~cpu conn f ~flags:(flag_data lor flag_ack))
      end
      else send_message ~cpu conn (payloads_of_inline ~cpu segments)

let transport_send_inline_zc stack ~dst ~head ~zc ~zc_n =
  let cpu = Net.Endpoint.cpu stack.ep in
  let conn = conn_for stack ~peer:dst in
  let total = ref (Mem.Pinned.Buf.len head) in
  for i = 0 to zc_n - 1 do
    total := !total + Mem.Pinned.Buf.len zc.(i)
  done;
  let record_len = check_msg_len !total in
  let payload_len = record_prefix_len + record_len in
  if
    conn.state = Established
    && payload_len <= mss
    && Mem.Pinned.Buf.len head >= transport_headroom
  then begin
    write_record_prefix head
      ~off:(Net.Packet.header_len + header_len)
      ~record_len;
    let segments = head :: Array.to_list (Array.sub zc 0 zc_n) in
    fast_path_send conn ~segments ~payload_len ~post:(fun f ->
        post_frame_zc conn f ~flags:(flag_data lor flag_ack) ~head ~zc ~zc_n)
  end
  else
    send_message ~cpu conn
      (payloads_of_inline ~cpu (head :: Array.to_list (Array.sub zc 0 zc_n)))

(* The conventional paths carry no transport headroom: every byte of every
   segment is record payload, and [send_message] stages the framing. *)
let transport_send_extra stack ~dst ~segments =
  let conn = conn_for stack ~peer:dst in
  send_message ~cpu:(Net.Endpoint.cpu stack.ep) conn
    (List.map (fun b -> Wire.Payload.Zero_copy b) segments)

let transport_send_extra_zc stack ~dst ~head ~zc ~zc_n =
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
        Net.Transport.make ~name:"tcp" ~ep:stack.ep
          ~headroom:transport_headroom ~max_msg_len
          ~connect:(fun ~peer -> ignore (conn_for stack ~peer))
          ~send_inline:(fun ~dst ~segments ->
            transport_send_inline stack ~dst ~segments)
          ~send_extra:(fun ~dst ~segments ->
            transport_send_extra stack ~dst ~segments)
          ~send_inline_zc:(fun ~dst ~head ~zc ~zc_n ->
            transport_send_inline_zc stack ~dst ~head ~zc ~zc_n)
          ~send_extra_zc:(fun ~dst ~head ~zc ~zc_n ->
            transport_send_extra_zc stack ~dst ~head ~zc ~zc_n)
          ~send_string:(fun ~dst s -> transport_send_string stack ~dst s)
          ~set_rx:(fun f ->
            stack.on_message <- (fun conn buf -> f ~src:conn.peer buf))
      in
      stack.tcp_transport <- Some tr;
      tr

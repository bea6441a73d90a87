module Format_ = Cornflakes.Format_

let frag_header_len = 16

let max_chunk = Net.Packet.max_payload - frag_header_len - 128

let max_object = 1 lsl 21 (* 2 MB: top class of the reassembly pool *)

let u32_to b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xff))

let u32_of (v : Mem.View.t) off =
  let b = v.Mem.View.data and base = v.Mem.View.off + off in
  Char.code (Bytes.get b base)
  lor (Char.code (Bytes.get b (base + 1)) lsl 8)
  lor (Char.code (Bytes.get b (base + 2)) lsl 16)
  lor (Char.code (Bytes.get b (base + 3)) lsl 24)

module Segmenter = struct
  type t = {
    ep : Net.Endpoint.t;
    scratch : Bytes.t; (* header+copied region, materialised once *)
    scratch_addr : int;
    mutable next_msg_id : int;
  }

  let create ep =
    let space = Mem.Registry.space (Net.Endpoint.registry ep) in
    {
      ep;
      scratch = Bytes.create max_chunk;
      scratch_addr = Mem.Addr_space.reserve space ~bytes:max_chunk;
      next_msg_id = 1;
    }

  (* One frame covering object-layout range [start, stop). *)
  let send_frame ~cpu t ~dst ~msg_id ~total ~start ~stop msg ~contiguous_len =
    let copy_lo = min start contiguous_len
    and copy_hi = min stop contiguous_len in
    let copy_len = copy_hi - copy_lo in
    let staging =
      Net.Endpoint.alloc_tx t.ep
        ~len:(Net.Packet.header_len + frag_header_len + copy_len)
    in
    (* Fragment header. *)
    let v = Mem.Pinned.Buf.view staging in
    u32_to v.Mem.View.data (v.Mem.View.off + Net.Packet.header_len) msg_id;
    u32_to v.Mem.View.data (v.Mem.View.off + Net.Packet.header_len + 4) start;
    u32_to v.Mem.View.data (v.Mem.View.off + Net.Packet.header_len + 8) total;
    u32_to v.Mem.View.data
      (v.Mem.View.off + Net.Packet.header_len + 12)
      (stop - start);
    Memmodel.Cpu.stream cpu Memmodel.Cpu.Tx
      ~addr:(v.Mem.View.addr + Net.Packet.header_len)
      ~len:frag_header_len;
    (* The slice of the header+copied region. *)
    if copy_len > 0 then
      Mem.Pinned.Buf.blit_from ~cpu staging
        ~src:
          (Mem.View.make ~addr:(t.scratch_addr + copy_lo) ~data:t.scratch
             ~off:copy_lo ~len:copy_len)
        ~dst_off:(Net.Packet.header_len + frag_header_len);
    (* Zero-copy slices in range, each with its own reference. *)
    let zc = ref [] in
    Obj_api.iterate_over_zero_copy_entries msg ~start ~stop (fun slice ->
        Mem.Pinned.Buf.incr_ref ~cpu slice;
        zc := slice :: !zc);
    let zc = Array.of_list (List.rev !zc) in
    let zc_n = Array.length zc in
    Memmodel.Cpu.charge_ops cpu Memmodel.Cpu.Safety
      Memmodel.Cpu.Completion_per_sge
      (Cornflakes.Memutil.distinct_meta_lines_arr zc ~n:zc_n);
    Net.Endpoint.send_inline t.ep ~dst ~head:staging ~zc ~zc_n

  let send t ~dst msg =
    let cpu = Net.Endpoint.cpu t.ep in
    let plan = Format_.measure msg in
    let total = plan.Format_.total_len in
    if total > max_object then
      invalid_arg
        (Printf.sprintf "Segmenter.send: object of %d bytes exceeds %d" total
           max_object);
    let contiguous_len = plan.Format_.header_len + plan.Format_.stream_len in
    if contiguous_len > max_chunk then
      invalid_arg "Segmenter.send: header+copied region exceeds one frame";
    (* Materialise the contiguous region once. *)
    let w =
      Wire.Cursor.Writer.create ~cpu
        (Mem.View.make ~addr:t.scratch_addr ~data:t.scratch ~off:0
           ~len:contiguous_len)
    in
    Format_.write plan w msg;
    let msg_id = t.next_msg_id in
    t.next_msg_id <- t.next_msg_id + 1;
    let rec frames start =
      if start < total then begin
        let stop = min total (start + max_chunk) in
        send_frame ~cpu t ~dst ~msg_id ~total ~start ~stop msg ~contiguous_len;
        frames stop
      end
    in
    frames 0;
    (* The frames hold slice references; drop the message's own. *)
    Format_.iter_zc plan (fun buf -> Mem.Pinned.Buf.decr_ref ~cpu buf)
end

module Reassembler = struct
  type pending_obj = {
    buf : Mem.Pinned.Buf.t;
    total : int;
    mutable received : int;
    mutable chunks : (int * int) list; (* received [start, stop) ranges *)
    mutable last_activity : int;
  }

  type t = {
    pool : Mem.Pinned.Pool.t;
    pending : (int * int, pending_obj) Hashtbl.t; (* (src, msg_id) *)
    mutable now : int; (* advanced by [expire] *)
  }

  let create registry =
    let pool =
      Mem.Pinned.Pool.create
        (Mem.Registry.space registry)
        ~name:"reassembly"
        ~classes:
          [ (16384, 128); (65536, 64); (262144, 32); (1048576, 8); (max_object, 4) ]
    in
    Mem.Registry.register registry pool;
    { pool; pending = Hashtbl.create 32; now = 0 }

  let pending t = Hashtbl.length t.pending

  (* Drop half-built objects whose fragments stopped arriving — without
     this, a single lost fragment would pin a reassembly buffer forever. *)
  let expire t ~now ~timeout_ns =
    t.now <- now;
    let dead =
      Hashtbl.fold
        (fun key e acc ->
          if now - e.last_activity > timeout_ns then (key, e) :: acc else acc)
        t.pending []
    in
    List.iter
      (fun (key, e) ->
        Hashtbl.remove t.pending key;
        Mem.Pinned.Buf.decr_ref ~cpu:Memmodel.Cpu.none e.buf)
      dead;
    List.length dead

  let overlaps chunks ~start ~stop =
    List.exists (fun (a, b) -> start < b && a < stop) chunks

  let on_packet ~cpu t ~src buf ~deliver =
    let v = Mem.Pinned.Buf.view buf in
    if v.Mem.View.len < frag_header_len then Mem.Pinned.Buf.decr_ref ~cpu buf
    else begin
      let msg_id = u32_of v 0 in
      let start = u32_of v 4 in
      let total = u32_of v 8 in
      let chunk_len = u32_of v 12 in
      if
        chunk_len < 0 || start < 0 || total <= 0 || total > max_object
        || start + chunk_len > total
        || frag_header_len + chunk_len > v.Mem.View.len
      then Mem.Pinned.Buf.decr_ref ~cpu buf
      else begin
        let key = (src, msg_id) in
        let entry =
          match Hashtbl.find_opt t.pending key with
          | Some e when e.total = total -> Some e
          | Some _ -> None (* conflicting total: drop *)
          | None -> (
              match Mem.Pinned.Buf.alloc ~cpu t.pool ~len:total with
              | obj ->
                  let e =
                    {
                      buf = obj;
                      total;
                      received = 0;
                      chunks = [];
                      last_activity = t.now;
                    }
                  in
                  Hashtbl.replace t.pending key e;
                  Some e
              | exception Mem.Pinned.Out_of_memory _ -> None)
        in
        (match entry with
        | None -> ()
        | Some e ->
            let stop = start + chunk_len in
            e.last_activity <- t.now;
            if not (overlaps e.chunks ~start ~stop) then begin
              Mem.Pinned.Buf.blit_from ~cpu e.buf
                ~src:(Mem.View.sub v ~off:frag_header_len ~len:chunk_len)
                ~dst_off:start;
              e.chunks <- (start, stop) :: e.chunks;
              e.received <- e.received + chunk_len;
              if e.received = e.total then begin
                Hashtbl.remove t.pending key;
                deliver ~src e.buf
              end
            end);
        Mem.Pinned.Buf.decr_ref ~cpu buf
      end
    end
end

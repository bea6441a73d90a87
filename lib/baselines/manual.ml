type safety = [ `Raw | `Safe ]

let frame_len lens = 4 + (4 * List.length lens) + List.fold_left ( + ) 0 lens

let forward tr ~dst buf = Net.Transport.send_extra tr ~dst ~segments:[ buf ]

let write_frame_header w views =
  let module W = Wire.Cursor.Writer in
  W.u32 w (List.length views);
  List.iter (fun (v : Mem.View.t) -> W.u32 w v.Mem.View.len) views

let send_zero_copy ~safety tr ~dst views =
  let ep = Net.Transport.endpoint tr in
  let cpu = Net.Endpoint.cpu ep in
  let headroom = Net.Transport.headroom tr in
  let hdr_len = 4 + (4 * List.length views) in
  let staging = Net.Endpoint.alloc_tx ep ~len:(headroom + hdr_len) in
  let window =
    Mem.View.sub (Mem.Pinned.Buf.view staging) ~off:headroom ~len:hdr_len
  in
  let w = Wire.Cursor.Writer.create ~cpu window in
  write_frame_header w views;
  let registry = Net.Endpoint.registry ep in
  let entries =
    List.map
      (fun (v : Mem.View.t) ->
        let recover_cpu =
          match safety with `Safe -> cpu | `Raw -> Memmodel.Cpu.none
        in
        match
          Mem.Registry.recover_ptr ~cpu:recover_cpu registry
            ~addr:v.Mem.View.addr ~len:v.Mem.View.len
        with
        | Some buf -> buf
        | None ->
            invalid_arg "Manual.send_zero_copy: field is not in pinned memory")
      views
  in
  (* With safety on, the completion-side reference releases pay a second
     metadata miss per distinct refcount cache line. *)
  (match safety with
  | `Safe ->
      let lines =
        List.sort_uniq compare
          (List.map (fun b -> Mem.Pinned.Buf.metadata_addr b lsr 6) entries)
      in
      Memmodel.Cpu.charge_ops cpu Memmodel.Cpu.Safety
        Memmodel.Cpu.Completion_per_sge (List.length lines)
  | `Raw -> ());
  Net.Transport.send_inline tr ~dst ~segments:(staging :: entries)

let send_one_copy tr ~dst views =
  let ep = Net.Transport.endpoint tr in
  let cpu = Net.Endpoint.cpu ep in
  let headroom = Net.Transport.headroom tr in
  let body = frame_len (List.map (fun (v : Mem.View.t) -> v.Mem.View.len) views) in
  let staging = Net.Endpoint.alloc_tx ep ~len:(headroom + body) in
  let window =
    Mem.View.sub (Mem.Pinned.Buf.view staging) ~off:headroom ~len:body
  in
  let w = Wire.Cursor.Writer.create ~cpu window in
  write_frame_header w views;
  List.iter (fun v -> Wire.Cursor.Writer.view_bytes w v) views;
  Net.Transport.send_inline tr ~dst ~segments:[ staging ]

let send_two_copy tr ~dst views =
  let ep = Net.Transport.endpoint tr in
  let cpu = Net.Endpoint.cpu ep in
  let headroom = Net.Transport.headroom tr in
  let body = frame_len (List.map (fun (v : Mem.View.t) -> v.Mem.View.len) views) in
  (* First copy: gather fields into contiguous (non-pinned) scratch. *)
  let scratch = Mem.Arena.alloc ~cpu (Net.Endpoint.arena ep) ~len:body in
  let w = Wire.Cursor.Writer.create ~cpu scratch in
  write_frame_header w views;
  List.iter (fun v -> Wire.Cursor.Writer.view_bytes w v) views;
  (* Second copy: scratch into the DMA-safe staging buffer. *)
  let staging = Net.Endpoint.alloc_tx ep ~len:(headroom + body) in
  Mem.Pinned.Buf.blit_from ~cpu staging ~src:scratch ~dst_off:headroom;
  Net.Transport.send_inline tr ~dst ~segments:[ staging ]

let parse ~cpu view =
  let module R = Wire.Cursor.Reader in
  let r = R.create ~cpu view in
  let n = R.u32 r in
  if n < 0 || n > 65536 then invalid_arg "Manual.parse: bad field count";
  let lens = List.init n (fun _ -> R.u32 r) in
  List.map (fun len -> R.sub r ~len) lens

let object_len = Format_.object_len

let num_copy_bytes msg =
  let plan = Format_.measure msg in
  plan.Format_.header_len + plan.Format_.stream_len

let num_zero_copy_entries msg = Format_.zc_count (Format_.measure msg)

let write_object_header msg w =
  let plan = Format_.measure msg in
  Format_.write plan w msg

let iterate_over_copy_entries ~cpu msg ~scratch ~start ~stop f =
  let plan = Format_.measure msg in
  let copy_len = plan.Format_.header_len + plan.Format_.stream_len in
  let lo = max 0 start and hi = min stop copy_len in
  if lo < hi then begin
    if scratch.Mem.View.len < copy_len then
      invalid_arg "Obj_api.iterate_over_copy_entries: scratch too small";
    let w =
      Wire.Cursor.Writer.create ~cpu (Mem.View.sub scratch ~off:0 ~len:copy_len)
    in
    Format_.write plan w msg;
    f (Mem.View.sub scratch ~off:lo ~len:(hi - lo))
  end

let iterate_over_zero_copy_entries msg ~start ~stop f =
  let plan = Format_.measure msg in
  let copy_len = plan.Format_.header_len + plan.Format_.stream_len in
  (* Zero-copy entries occupy [copy_len, total) in wire order. *)
  let pos = ref copy_len in
  Format_.iter_zc plan (fun buf ->
      let len = Mem.Pinned.Buf.len buf in
      let lo = max start !pos and hi = min stop (!pos + len) in
      if lo < hi then
        f (Mem.Pinned.Buf.sub buf ~off:(lo - !pos) ~len:(hi - lo));
      pos := !pos + len)

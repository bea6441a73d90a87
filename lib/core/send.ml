exception Message_too_large of { len : int; max : int }

(* Degradation counters (domain-local, like the scratch plan below): a
   parallel-harness job runs entirely on one domain, so the harness's
   snapshot-delta bookkeeping over one job sees exactly that job's
   demotions — never a concurrent job's. *)
type counters = { mutable demotions : int; mutable demotion_skips : int }

let counters_dls : counters Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { demotions = 0; demotion_skips = 0 })

let counters () = Domain.DLS.get counters_dls

let pressure_demotions () = (counters ()).demotions

let pressure_demotion_skips () = (counters ()).demotion_skips

let reset_counters () =
  let c = counters () in
  c.demotions <- 0;
  c.demotion_skips <- 0

(* Demote the smallest zero-copy payloads to copies until at most [keep]
   remain ([keep = 0] demotes every one). Demotion pays both the metadata
   touch (the refcount was already taken) and the data copy — the
   double-cost case §3.2.1 warns about, which is why it only happens on
   SGE-limit overflow or under memory pressure. With [best_effort] an
   arena-exhausted copy keeps the zero-copy reference instead of raising;
   returns (demoted, kept-for-lack-of-arena). *)
let demote_excess ~cpu ?(site = "Send.demote") ?(best_effort = false) ep msg ~keep =
  let zc_lens =
    Wire.Dyn.fold_payloads msg ~init:[] ~f:(fun acc p ->
        match p with
        | Wire.Payload.Zero_copy buf -> Mem.Pinned.Buf.len buf :: acc
        | Wire.Payload.Copied _ | Wire.Payload.Literal _ -> acc)
  in
  let count = List.length zc_lens in
  let demoted = ref 0 in
  let skipped = ref 0 in
  if count > keep then begin
    let sorted = List.sort (fun a b -> compare b a) zc_lens in
    let cutoff = if keep = 0 then max_int else List.nth sorted (keep - 1) in
    let strictly_larger =
      List.length (List.filter (fun l -> l > cutoff) sorted)
    in
    (* Keep everything strictly larger than the cutoff length, plus the
       first [keep - strictly_larger] payloads of exactly the cutoff length
       in traversal order; demote every other zero-copy payload. *)
    let allow_at_cutoff = ref (keep - strictly_larger) in
    let arena = Net.Endpoint.arena ep in
    Wire.Dyn.map_payloads msg (fun p ->
        match p with
        | Wire.Payload.Copied _ | Wire.Payload.Literal _ -> p
        | Wire.Payload.Zero_copy buf ->
            let len = Mem.Pinned.Buf.len buf in
            let keep_this =
              if len > cutoff then true
              else if len < cutoff then false
              else if !allow_at_cutoff > 0 then begin
                decr allow_at_cutoff;
                true
              end
              else false
            in
            if keep_this then p
            else begin
              match
                Mem.Arena.copy_in ~cpu ~site arena (Mem.Pinned.Buf.view buf)
              with
              | copied ->
                  Mem.Pinned.Buf.decr_ref ~cpu ~site buf;
                  incr demoted;
                  Wire.Payload.Copied copied
              | exception Mem.Pinned.Out_of_memory _ when best_effort ->
                  incr skipped;
                  p
            end)
  end;
  (!demoted, !skipped)

(* One reusable plan per domain: a domain runs one simulation at a time and
   [send_object] never re-enters itself (segmented sends go through
   [Segment], which measures independently), so the measured plan is always
   consumed before the next send starts. Domain-local rather than global so
   parallel harness workers never share it. *)
type scratch = { plan : Format_.plan; writer : Wire.Cursor.Writer.t }

let scratch_dls : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        plan = Format_.create_plan ();
        (* One reusable writer, retargeted ([Writer.reset]) at each send's
           staging window instead of allocated per message. *)
        writer =
          Wire.Cursor.Writer.create ~cpu:Memmodel.Cpu.none
            (Mem.View.make ~addr:0 ~data:Bytes.empty ~off:0 ~len:0);
      })

let scratch () = Domain.DLS.get scratch_dls

type writer = Format_.plan -> Wire.Cursor.Writer.t -> Wire.Dyn.t -> unit

(* The full send pipeline, parameterised over the serializer body: the
   generic writer for [send_via], a codegen-folded [write_folded] for
   generated [send]s ([send_planned]). [write] must be a top-level function
   so the hot path stays allocation-free. Every charge goes to the
   transport's meter. *)
let send_planned (config : Config.t) (tr : Net.Transport.t) ~dst msg ~write =
  let ep = tr.Net.Transport.tr_ep in
  let cpu = Net.Endpoint.cpu ep in
  let headroom = tr.Net.Transport.tr_headroom in
  let max_len = tr.Net.Transport.tr_max_msg_len in
  let scratch = scratch () in
  let plan = scratch.plan in
  Format_.measure_into plan msg;
  if plan.Format_.total_len > max_len then
    raise (Message_too_large { len = plan.Format_.total_len; max = max_len });
  let limit = (Nic.Device.model (Net.Endpoint.nic ep)).Nic.Model.max_sge in
  let max_zc = limit - if config.serialize_and_send then 1 else 2 in
  if plan.Format_.zc_count > max_zc then begin
    ignore (demote_excess ~cpu ep msg ~keep:max_zc);
    Format_.measure_into plan msg
  end;
  (* Graceful degradation: when completions are backing up (lost/delayed
     CQEs filling the TX ring), stop pinning new references — demote every
     zero-copy payload to an arena copy, best-effort if the arena is
     constrained too. *)
  if
    config.demote_on_pressure && plan.Format_.zc_count > 0
    && Net.Endpoint.under_pressure ep
  then begin
    let demoted, skipped =
      demote_excess ~cpu ~site:"Send.pressure_demote" ~best_effort:true ep msg
        ~keep:0
    in
    let c = counters () in
    c.demotions <- c.demotions + demoted;
    c.demotion_skips <- c.demotion_skips + skipped;
    if demoted > 0 then Format_.measure_into plan msg
  end;
  let contiguous_len = plan.Format_.header_len + plan.Format_.stream_len in
  (* Completion-side reference release: by the time the CQE arrives the
     refcount metadata has typically been evicted again, so the release
     pays a second metadata miss — but buffers whose refcounts share a
     cache line (adjacent slots, e.g. one value's linked list) amortise it.
     Charged here (per distinct metadata line) so per-request service times
     include it; staging entries recycle hot buffers and pay nothing. *)
  Memmodel.Cpu.charge_ops cpu Memmodel.Cpu.Safety
    Memmodel.Cpu.Completion_per_sge
    (Memutil.distinct_meta_lines_arr plan.Format_.zc ~n:plan.Format_.zc_count);
  if config.serialize_and_send then begin
    (* One staging buffer: transport headroom (wire headers + framing) +
       object header + copied fields. Zero-copy payloads ride as further
       gather entries. *)
    let staging = Net.Endpoint.alloc_tx ep ~len:(headroom + contiguous_len) in
    let window =
      Mem.Pinned.Buf.sub_view ~site:"Send.staging" staging ~off:headroom
        ~len:contiguous_len
    in
    let w = scratch.writer in
    Wire.Cursor.Writer.reset ~cpu w window;
    Format_.run plan w msg ~write;
    tr.Net.Transport.tr_send_inline_zc ~dst ~head:staging
      ~zc:plan.Format_.zc ~zc_n:plan.Format_.zc_count
  end
  else begin
    (* Layered path: object buffer, then an explicit scatter-gather array
       handed to the stack, which prepends a header-only entry. *)
    let obj = Net.Endpoint.alloc_tx ep ~len:contiguous_len in
    let w = scratch.writer in
    Wire.Cursor.Writer.reset ~cpu w (Mem.Pinned.Buf.view obj);
    Format_.run plan w msg ~write;
    let nsge = 1 + plan.Format_.zc_count in
    let arena = Net.Endpoint.arena ep in
    let sga = Mem.Arena.alloc ~cpu ~site:"Send.sga" arena ~len:(16 * nsge) in
    (* Materialising the scatter-gather array: a heap vector allocation,
       writing (ptr, len) pairs (two calls per entry), and the stack
       re-reading them while posting — the intermediate transformation
       serialize-and-send eliminates (paper section 3.2.3). *)
    Memmodel.Cpu.charge_op cpu Memmodel.Cpu.Alloc Memmodel.Cpu.Vec_alloc;
    Memmodel.Cpu.charge_ops cpu Memmodel.Cpu.Tx Memmodel.Cpu.Per_call
      (2 * nsge);
    Memmodel.Cpu.stream cpu Memmodel.Cpu.Tx ~addr:sga.Mem.View.addr
      ~len:(16 * nsge);
    Memmodel.Cpu.stream cpu Memmodel.Cpu.Tx ~addr:sga.Mem.View.addr
      ~len:(16 * nsge);
    tr.Net.Transport.tr_send_extra_zc ~dst ~head:obj ~zc:plan.Format_.zc
      ~zc_n:plan.Format_.zc_count;
    (* The stack has consumed the scatter-gather array; hand the chunk back
       so the next layered send reuses it. *)
    Mem.Arena.recycle ~site:"Send.sga" arena sga
  end
[@@alloc_free]

let send_via config tr ~dst msg =
  send_planned config tr ~dst msg ~write:Format_.write_msg_generic
[@@alloc_free]

(* Compatibility shim for the UDP-only call sites: [Endpoint.transport] is
   cached per endpoint, so this stays allocation-free. *)
let send_object config ep ~dst msg =
  send_via config (Net.Endpoint.transport ep) ~dst msg

let deserialize = Format_.deserialize

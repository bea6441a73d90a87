(* RefSan: a shadow ledger over the pinned-memory refcount machinery.

   Every lifecycle event of a pinned buffer — alloc, incref, decref, sub,
   free, DMA post/completion, write — is mirrored here, tagged with a
   caller-supplied site label. The ledger never influences the run; it only
   observes and diagnoses:

   - leaks: buffers still referenced at quiesce whose outstanding references
     are neither declared roots (e.g. KV-store values) nor active in-flight
     holds (NIC ring / TCP retransmission queue);
   - double-free: release of a handle whose buffer the ledger saw freed,
     reported with alloc and free provenance;
   - refcount underflow: release of a reference the ledger never saw taken;
   - use-after-free: any access through a stale handle, with the buffer's
     full event history attached;
   - write-after-post: mutation of bytes covered by an in-flight hold.

   The ledger is domain-local (each parallel-harness worker observes only
   the simulations it runs; [checkpoint] folds findings into process-wide
   totals) and costs one atomic load per instrumented operation when
   disabled. *)

type buf_id = {
  pool_uid : int;
  pool : string;
  size : int;
  slot : int;
  gen : int;
  base : int; (* simulated address of the slot's first data byte *)
}

let describe id =
  Printf.sprintf "%s/%dB slot %d gen %d" id.pool id.size id.slot id.gen

type diag_kind =
  | Leak
  | Double_free
  | Underflow
  | Use_after_free
  | Write_hazard
  | Stuck_hold

let diag_kind_to_string = function
  | Leak -> "leak"
  | Double_free -> "double-free"
  | Underflow -> "refcount-underflow"
  | Use_after_free -> "use-after-free"
  | Write_hazard -> "write-after-post"
  | Stuck_hold -> "stuck-hold"

type diag = {
  d_kind : diag_kind;
  d_site : string; (* the offending site label *)
  d_buffer : string; (* [describe] of the buffer involved *)
  d_message : string;
}

type record = {
  r_id : buf_id;
  mutable r_refs : int; (* shadow reference count *)
  mutable r_rooted : int; (* refs declared long-lived *)
  mutable r_holds : int; (* active in-flight holds on this buffer *)
  mutable r_freed : bool;
  mutable r_alloc_site : string;
  mutable r_free_site : string option;
  mutable r_events : Event.t list; (* newest first, capped *)
  mutable r_nevents : int;
}

type hold = {
  h_key : int * int * int * int;
  h_pool : int;
  h_addr : int;
  h_len : int;
  h_site : string;
}

(* --- State ------------------------------------------------------------- *)

(* The ledger is domain-local: every worker of the parallel experiment
   harness gets its own independent instance (a job runs entirely on one
   domain, so its rig's whole lifecycle lands in one ledger), and nothing
   here is shared mutable state across jobs. The only cross-domain pieces
   are the enabled switch, the pool-uid counter (uids must stay process-
   unique so adopted ids never collide), and the cross-run accumulators —
   all atomics. *)

let env_enabled =
  match Sys.getenv_opt "CF_SANITIZE" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

let enabled = Atomic.make env_enabled

let is_enabled () = Atomic.get enabled

let set_enabled b = Atomic.set enabled b

let next_pool_uid = Atomic.make 0

let register_pool () = 1 + Atomic.fetch_and_add next_pool_uid 1

type state = {
  mutable seq : int;
  records : (int * int * int * int, record) Hashtbl.t;
  (* Freed records are kept for provenance (double-free / UAF reports) but
     bounded: the oldest are evicted once the graveyard exceeds its cap. *)
  graveyard : (int * int * int * int) Queue.t;
  holds : (int, hold) Hashtbl.t;
  holds_by_pool : (int, (int, hold) Hashtbl.t) Hashtbl.t;
  mutable next_token : int;
  mutable diags_rev : diag list;
  mutable n_diags : int;
  (* Hold tokens already reported as stuck, so repeated quiesces don't
     duplicate the diagnostic. *)
  flagged_stuck : (int, unit) Hashtbl.t;
}

let graveyard_cap = 8192

let diags_cap = 10_000

let fresh_state () =
  {
    seq = 0;
    records = Hashtbl.create 4096;
    graveyard = Queue.create ();
    holds = Hashtbl.create 256;
    holds_by_pool = Hashtbl.create 16;
    next_token = 0;
    diags_rev = [];
    n_diags = 0;
    flagged_stuck = Hashtbl.create 64;
  }

let dls : state Domain.DLS.key = Domain.DLS.new_key fresh_state

let st () = Domain.DLS.get dls

let reset () =
  let s = st () in
  Hashtbl.reset s.records;
  Queue.clear s.graveyard;
  Hashtbl.reset s.holds;
  Hashtbl.reset s.holds_by_pool;
  Hashtbl.reset s.flagged_stuck;
  s.diags_rev <- [];
  s.n_diags <- 0;
  s.seq <- 0

(* --- Internals ---------------------------------------------------------- *)

(* Slot/generation counters are per size class within a pool, so the class
   size must participate in the key or 64B slot 0 and 512B slot 0 of the
   same pool would share one record. *)
let key_of id = (id.pool_uid, id.size, id.slot, id.gen)

let max_events = 24

let push_event r kind site =
  let s = st () in
  s.seq <- s.seq + 1;
  r.r_events <- { Event.seq = s.seq; kind; site } :: r.r_events;
  r.r_nevents <- r.r_nevents + 1;
  if r.r_nevents > max_events then begin
    (* Keep the newest two-thirds; the alloc/free provenance survives in
       [r_alloc_site]/[r_free_site]. *)
    let keep = (2 * max_events) / 3 in
    r.r_events <- List.filteri (fun i _ -> i < keep) r.r_events;
    r.r_nevents <- keep
  end

let diag d_kind ~id ~site fmt =
  Printf.ksprintf
    (fun msg ->
      let s = st () in
      if s.n_diags < diags_cap then begin
        s.n_diags <- s.n_diags + 1;
        s.diags_rev <-
          {
            d_kind;
            d_site = site;
            d_buffer = (match id with Some id -> describe id | None -> "?");
            d_message = msg;
          }
          :: s.diags_rev
      end)
    fmt

let fresh_record id ~alloc_site ~refs =
  let r =
    {
      r_id = id;
      r_refs = refs;
      r_rooted = 0;
      r_holds = 0;
      r_freed = false;
      r_alloc_site = alloc_site;
      r_free_site = None;
      r_events = [];
      r_nevents = 0;
    }
  in
  Hashtbl.replace (st ()).records (key_of id) r;
  r

(* A buffer first seen mid-life (the sanitizer was enabled after it was
   allocated): adopt it with the caller-reported real refcount so later
   bookkeeping stays balanced. *)
let find_or_adopt id ~refs =
  match Hashtbl.find_opt (st ()).records (key_of id) with
  | Some r -> r
  | None -> fresh_record id ~alloc_site:"<untracked>" ~refs

let history id =
  match Hashtbl.find_opt (st ()).records (key_of id) with
  | None -> []
  | Some r ->
      let tail =
        match r.r_free_site with
        | Some s when not (List.exists (fun (e : Event.t) -> e.Event.kind = Event.Free) r.r_events) ->
            [ Printf.sprintf "(free was at %s)" s ]
        | _ -> []
      in
      (Printf.sprintf "(alloc was at %s)" r.r_alloc_site
      :: List.rev_map Event.to_string r.r_events)
      @ tail

(* --- Lifecycle hooks (called from Mem.Pinned & friends) ----------------- *)

let on_alloc ~id ~site =
  let r = fresh_record id ~alloc_site:site ~refs:1 in
  push_event r Event.Alloc site

let on_incref ~id ~refs ~site =
  match Hashtbl.find_opt (st ()).records (key_of id) with
  | Some r ->
      r.r_refs <- r.r_refs + 1;
      push_event r Event.Incref site
  | None ->
      (* Adopted mid-life: [refs] is the real post-incref count. *)
      let r = fresh_record id ~alloc_site:"<untracked>" ~refs in
      push_event r Event.Incref site

let on_decref ~id ~refs ~site =
  match Hashtbl.find_opt (st ()).records (key_of id) with
  | None ->
      let r = find_or_adopt id ~refs in
      push_event r Event.Decref site;
      diag Underflow ~id:(Some id) ~site
        "refcount underflow: %s released at %s a reference the ledger never \
         saw taken"
        (describe id) site
  | Some r ->
      r.r_refs <- r.r_refs - 1;
      push_event r Event.Decref site;
      if r.r_refs < 0 then begin
        diag Underflow ~id:(Some id) ~site
          "refcount underflow: %s dropped below zero references at %s (alloc \
           was at %s)"
          (describe id) site r.r_alloc_site
      end

let on_free ~id ~site =
  let r = find_or_adopt id ~refs:0 in
  r.r_freed <- true;
  r.r_refs <- 0;
  r.r_free_site <- Some site;
  push_event r Event.Free site;
  let s = st () in
  Queue.push (key_of id) s.graveyard;
  if Queue.length s.graveyard > graveyard_cap then begin
    let old = Queue.pop s.graveyard in
    match Hashtbl.find_opt s.records old with
    | Some r when r.r_freed -> Hashtbl.remove s.records old
    | _ -> ()
  end

let on_sub ~id ~refs ~site =
  let r = find_or_adopt id ~refs in
  push_event r Event.Sub site

let on_root ~id ~refs ~site =
  let r = find_or_adopt id ~refs in
  r.r_rooted <- r.r_rooted + 1;
  push_event r Event.Root site

let on_unroot ~id ~refs ~site =
  let r = find_or_adopt id ~refs in
  if r.r_rooted > 0 then r.r_rooted <- r.r_rooted - 1;
  push_event r Event.Unroot site

(* Classify an access through a stale handle. [op = `Release] on a buffer
   the ledger saw freed is a double-free; everything else is use-after-free. *)
let stale_access ~id ~op ~site =
  let r = Hashtbl.find_opt (st ()).records (key_of id) in
  let freed = match r with Some r -> r.r_freed | None -> false in
  let provenance =
    match r with
    | Some r ->
        Printf.sprintf " (alloc was at %s; freed at %s)" r.r_alloc_site
          (match r.r_free_site with Some s -> s | None -> "?")
    | None -> ""
  in
  match op with
  | `Release when freed ->
      diag Double_free ~id:(Some id) ~site "double free of %s at %s%s"
        (describe id) site provenance
  | `Release ->
      diag Double_free ~id:(Some id) ~site
        "release of stale handle %s at %s%s" (describe id) site provenance
  | `Read | `Write | `Ref ->
      diag Use_after_free ~id:(Some id) ~site "use after free of %s at %s%s"
        (describe id) site provenance

(* --- In-flight holds and the write-after-post detector ------------------ *)

let hold ~id ~refs ~addr ~len ~site =
  let s = st () in
  let r = find_or_adopt id ~refs in
  r.r_holds <- r.r_holds + 1;
  push_event r Event.Dma_post site;
  s.next_token <- s.next_token + 1;
  let token = s.next_token in
  let h = { h_key = key_of id; h_pool = id.pool_uid; h_addr = addr; h_len = len; h_site = site } in
  Hashtbl.replace s.holds token h;
  let sub =
    match Hashtbl.find_opt s.holds_by_pool id.pool_uid with
    | Some sub -> sub
    | None ->
        let sub = Hashtbl.create 64 in
        Hashtbl.replace s.holds_by_pool id.pool_uid sub;
        sub
  in
  Hashtbl.replace sub token h;
  token

let release_hold token =
  let s = st () in
  match Hashtbl.find_opt s.holds token with
  | None -> ()
  | Some h ->
      Hashtbl.remove s.holds token;
      (match Hashtbl.find_opt s.holds_by_pool h.h_pool with
      | Some sub -> Hashtbl.remove sub token
      | None -> ());
      (match Hashtbl.find_opt s.records h.h_key with
      | Some r ->
          if r.r_holds > 0 then r.r_holds <- r.r_holds - 1;
          push_event r Event.Dma_complete h.h_site
      | None -> ())

let on_write ~id ~refs ~addr ~len ~site =
  let r = find_or_adopt id ~refs in
  push_event r Event.Write site;
  match Hashtbl.find_opt (st ()).holds_by_pool id.pool_uid with
  | None -> ()
  | Some sub ->
      Hashtbl.iter
        (fun _token h ->
          if addr < h.h_addr + h.h_len && h.h_addr < addr + len then
            diag Write_hazard ~id:(Some id) ~site
              "write-after-post: %s mutated [%d,%d) at %s while bytes \
               [%d,%d) are in flight (posted at %s); write a fresh buffer \
               instead, or wait for the send's completion"
              (describe id) addr (addr + len) site h.h_addr
              (h.h_addr + h.h_len) h.h_site)
        sub

(* --- Reports ------------------------------------------------------------ *)

type leak = {
  l_id : buf_id;
  l_refs : int; (* unexcused outstanding references *)
  l_alloc_site : string;
  l_ref_sites : (string * int) list; (* where refs were taken, with counts *)
}

let leaks () =
  Hashtbl.fold
    (fun _key r acc ->
      if r.r_freed then acc
      else begin
        let outstanding = r.r_refs - r.r_rooted - r.r_holds in
        if outstanding <= 0 then acc
        else begin
          let sites = Hashtbl.create 8 in
          List.iter
            (fun (e : Event.t) ->
              if Event.ref_delta e.Event.kind > 0 then
                Hashtbl.replace sites e.Event.site
                  (1 + Option.value ~default:0 (Hashtbl.find_opt sites e.Event.site)))
            r.r_events;
          if Hashtbl.length sites = 0 then Hashtbl.replace sites r.r_alloc_site 1;
          {
            l_id = r.r_id;
            l_refs = outstanding;
            l_alloc_site = r.r_alloc_site;
            l_ref_sites =
              List.sort compare (Hashtbl.fold (fun s n acc -> (s, n) :: acc) sites []);
          }
          :: acc
        end
      end)
    (st ()).records []

let diagnostics () = List.rev (st ()).diags_rev

let count_diags kind =
  List.fold_left
    (fun acc d -> if d.d_kind = kind then acc + 1 else acc)
    0 (diagnostics ())

let hazard_count () = count_diags Write_hazard + count_diags Stuck_hold

(* A hold still active when the engine quiesces means a DMA post whose
   completion never arrived: the buffer's reference is pinned forever
   unless a reaper or retry layer recovers it. Leak detection deliberately
   excuses held refs (in-flight is not leaked), so without this check a
   lost completion would be invisible. Called from the quiesce report. *)
let flag_stuck_holds () =
  let s = st () in
  let fresh = ref 0 in
  Hashtbl.iter
    (fun token h ->
      if not (Hashtbl.mem s.flagged_stuck token) then begin
        Hashtbl.replace s.flagged_stuck token ();
        incr fresh;
        let id = Option.map (fun r -> r.r_id) (Hashtbl.find_opt s.records h.h_key) in
        let buf = match id with Some id -> describe id | None -> Printf.sprintf "pool %d" h.h_pool in
        diag Stuck_hold ~id ~site:h.h_site
          "stuck hold: %s still in flight at quiesce (posted at %s) — a lost \
           completion pinned its reference; reap the TX ring or let the retry \
           layer recover it"
          buf h.h_site
      end)
    s.holds;
  !fresh

let tracked_buffers () = Hashtbl.length (st ()).records

let active_holds () = Hashtbl.length (st ()).holds

(* --- Cross-run accumulation ---------------------------------------------

   Long harnesses (the bench binary) reset the ledger between experiments to
   bound its memory; [checkpoint] folds the current results into running
   totals first so the end-of-run roll-up still covers everything. The
   totals are atomics because parallel workers checkpoint their own
   domain-local ledgers into the same process-wide roll-up (the grand-total
   line the CI gate greps covers every domain's findings). *)

let acc_leaks = Atomic.make 0

let acc_hazards = Atomic.make 0

let acc_other = Atomic.make 0

let checkpoint () =
  ignore (Atomic.fetch_and_add acc_leaks (List.length (leaks ())));
  ignore (Atomic.fetch_and_add acc_hazards (hazard_count ()));
  ignore (Atomic.fetch_and_add acc_other ((st ()).n_diags - hazard_count ()));
  reset ()

let total_leaks () = Atomic.get acc_leaks + List.length (leaks ())

let total_hazards () = Atomic.get acc_hazards + hazard_count ()

let total_other_diags () =
  Atomic.get acc_other + ((st ()).n_diags - hazard_count ())

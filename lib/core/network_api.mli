(** The networking-stack API exactly as the paper presents it (Listing 2):

    {v
    impl Network {
        fn alloc(&self, size: usize) -> RcBuf;
        fn recv_packet(&self) -> RcBuf;
        fn recover_ptr(&self, ptr: &[u8]) -> Option<RcBuf>;
        fn send_object(&self, obj: impl CornflakesObj);
    }
    v}

    A thin veneer over {!Net.Endpoint}, {!Mem.Registry} and {!Send}, so code
    written against the paper's API reads one-to-one. [recv_packet] is a
    pull-style inbox (the underlying stack is upcall-based; received buffers
    queue here until asked for). *)

type t

(** [attach ?config ep ~data_pool] — [data_pool] serves [alloc] (the paper's
    application-facing pinned allocator). Takes over [ep]'s receive path. *)
val attach :
  ?config:Config.t -> Net.Endpoint.t -> data_pool:Mem.Pinned.Pool.t -> t

(** [alloc t ~size] — a fresh reference-counted DMA-safe buffer. *)
val alloc : t -> size:int -> Mem.Pinned.Buf.t

(** [recv_packet t] — the next received payload, if any (one reference
    owned by the caller). *)
val recv_packet : t -> Mem.Pinned.Buf.t option

(** [recover_ptr t view] — a referenced handle if the window lies in live
    pinned memory. *)
val recover_ptr : t -> Mem.View.t -> Mem.Pinned.Buf.t option

(** [send_object t ~dst msg] — the combined serialize-and-send. *)
val send_object : t -> dst:int -> Wire.Dyn.t -> unit

(** [cf_ptr t view] — the hybrid smart-pointer constructor bound to this
    network (Listing 3's [CFPtr::new(val, conn)]). *)
val cf_ptr : t -> Mem.View.t -> Wire.Payload.t

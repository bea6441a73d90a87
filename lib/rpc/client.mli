(** Call state shared by every generated client stub.

    Owns the request-id counter, the pending-call table, the pooled
    response {!Wire.Reader.t}, and the optional retry ({!Net.Reliab.t})
    and engine-clock hooks. Generated [call_<m>] stubs drive {!call} /
    {!call_stream}; the generated [deliver] validates each response frame
    once and routes it through {!complete}. *)

type t

(** [create ?config ?engine ?reliab ~resp ~req_id ~req_op ~write tr] —
    [resp] is the service's response envelope descriptor (backs the
    pooled reader); [req_id]/[req_op] the request envelope's [id] and [op]
    field indices; [write] its folded writer; [tr] the transport the stubs
    send on. Attach [reliab] for retry/backoff with deadline clamping;
    without it, [engine] alone still resolves deadlines
    deterministically. *)
val create :
  ?config:Cornflakes.Config.t ->
  ?engine:Sim.Engine.t ->
  ?reliab:Net.Reliab.t ->
  resp:Schema.Desc.message ->
  req_id:int ->
  req_op:int ->
  write:Cornflakes.Send.writer ->
  Net.Transport.t ->
  t

val transport : t -> Net.Transport.t
val config : t -> Cornflakes.Config.t

(** Pooled reader the generated [deliver] validates responses into. *)
val reader : t -> Wire.Reader.t

(** [call t ?cpu ?deadline_ms ~op ~dst ~on_reply req] — assigns an id,
    stamps it and the method word [op] into [req] by field index, then
    sends [req] to [dst] — via the retry layer when attached, whose
    retransmissions re-send [req]. The call slot holds [req] until the
    call resolves: the caller must not rebuild it before then. Returns
    the id. [on_reply] runs at most once, with the validated in-place
    reader. *)
val call :
  t ->
  ?cpu:Memmodel.Cpu.t ->
  ?deadline_ms:int ->
  op:int64 ->
  dst:int ->
  on_reply:(Wire.Reader.t -> unit) ->
  Wire.Dyn.t ->
  int

(** Streamed variant: [on_chunk] per in-order chunk (including the last),
    then [on_done ~ok:true]; a deadline or retry exhaustion runs
    [on_done ~ok:false]. *)
val call_stream :
  t ->
  ?cpu:Memmodel.Cpu.t ->
  ?deadline_ms:int ->
  op:int64 ->
  dst:int ->
  on_chunk:(Wire.Reader.t -> unit) ->
  on_done:(ok:bool -> unit) ->
  Wire.Dyn.t ->
  int

(** Route a validated response. [seq_word] must be given for streamed
    calls (the response envelope's [seq] field). Unknown ids count as
    {!orphans}; sequence violations as {!misordered}. *)
val complete : ?seq_word:int64 -> t -> id:int -> Wire.Reader.t -> unit

val outstanding : t -> int
val calls : t -> int
val replies : t -> int
val chunks : t -> int

(** Calls resolved by deadline or retry exhaustion. *)
val abandoned : t -> int

(** Replies whose id matched no pending call. *)
val orphans : t -> int

(** Streamed chunks rejected for sequence violations. *)
val misordered : t -> int

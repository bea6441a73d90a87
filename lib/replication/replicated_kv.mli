(** Primary-backup replicated key-value store.

    The paper validates nested-object support "with a replicated key value
    store application that serializes nested Protobuf objects" (§4). This is
    that application: clients talk to a primary; puts are applied locally,
    forwarded to every backup as a {e nested} Cornflakes object (the
    operation message is embedded in a replication envelope), acknowledged,
    and only then acked to the client. Values of 512 B and up travel to the
    backups zero-copy out of the primary's own store — replication traffic
    exercises exactly the same hybrid path as client responses.

    The protocol is the [Replica] service of [replication.proto], compiled
    at build time: every message is built, sent and read through the
    generated [Replication_rpc] module. [RepMsg.op] carries the method word
    (request = 0, replicate = 1) or a response word (ack = 2, reply = 3);
    [RepOp.kind] carries the kv service's [Get]/[Put] method word.

    Ordering and duplicates: replicate envelopes carry a sequence number.
    Each backup applies ops in sequence order, parking early arrivals (their
    receive buffers held, key and values as windows on them) until their
    turn, and acks an op only once it is applied; a duplicate of an applied
    op is re-acked, a duplicate of a parked op is dropped. The primary
    commits a put once every backup has acked it, counting each backup
    once, so reordering and duplication on the fabric are safe. Loss
    recovery is out of scope: a dropped replicate or ack leaves its put
    uncommitted.

    Per-request state lives in slots of id rings keyed by sequence number
    and reused: the primary's pending puts and each backup's parked ops.
    Put values are copied from the receive buffer straight into the
    replica's pool, and an in-order op applies straight from its frame, so
    steady-state replication allocates only the handles the stores keep
    and the send path's own.

    Ingress: a node drops, and counts with {!Loadgen.Server.reject}, a
    frame that fails envelope or nested validation, carries an op word the
    node does not serve, or comes from the wrong peer: a replicate not from
    the primary, an ack not from a backup. A replicate whose seq is absent
    or has bit 63 set is no op a primary numbers, and is counted too.

    Schema:
    {v
    message RepOp  { uint64 seq = 1; uint32 kind = 2; bytes key = 3;
                     repeated bytes vals = 4; }
    message RepMsg { uint64 id = 1; uint32 op = 2; RepOp body = 3;
                     repeated bytes vals = 4; }
    service Replica { rpc Request (RepMsg) returns (RepMsg);
                      rpc Replicate (RepMsg) returns (RepMsg); }
    v} *)

val schema : Schema.Desc.t

type cluster

(** [create rig ~backups ~workload] builds one primary (the rig's server)
    plus [backups] backup servers, each single-core with its own store,
    populated identically from the workload. Backup [i] is endpoint
    [11 + i] on the rig's fabric. Raises [Invalid_argument] unless
    [0 <= backups < Sys.int_size - 1]. *)
val create : Apps.Rig.t -> backups:int -> workload:Workload.Spec.t -> cluster

val primary_store : cluster -> Kvstore.Store.t

val backup_stores : cluster -> Kvstore.Store.t list

(** Each backup's server (its endpoint, transport and reject count),
    backup [i] at position [i]. *)
val backup_servers : cluster -> Loadgen.Server.t list

(** Puts acknowledged to clients so far (i.e. fully replicated). *)
val committed : cluster -> int

(** Client-side: issue an op to the primary ([id] echoes back in the
    response). *)
val send_op :
  cluster -> Workload.Spec.op -> Net.Transport.t -> dst:int -> id:int -> unit

val send_next : cluster -> Net.Transport.t -> dst:int -> id:int -> unit

(** Client-side response-id parser. *)
val parse_id : cluster -> Mem.Pinned.Buf.t -> int

(** The durable store: a directory holding one graph database, served
    under MVCC snapshot reads and WAL group commit.

    {v
    <dir>/snapshot.bin   latest checkpointed image ({!Snapshot})
    <dir>/wal.log        committed changes since that image ({!Wal})
    v}

    Opening recovers the database: load the snapshot (if any), scan the
    WAL, drop a torn tail left by a crash, skip records already covered
    by the snapshot's [last_seq] watermark, and apply the rest's changes
    ({!Snapshot.apply_change}; no query runs).  A corrupt log interior
    (CRC mismatch on a complete record) or a record that does not apply
    refuses to open rather than silently dropping acknowledged commits.

    {2 Version lifecycle}

    The graph is a persistent value, so a "version" is simply a graph
    value; the store holds a pointer to the latest {e committed,
    durable} one.  {!snapshot} reads that pointer behind a short mutex —
    that is the entire read-side protocol.  A reader pins a version by
    keeping the returned value; it can never observe a torn or
    in-flight state, never blocks a writer, and is never blocked by
    one.  Old versions are reclaimed by the GC when the last reader
    drops them.

    Writers serialise {e only among themselves}:

    + take {!writer_lock} and build the next version from the latest
      committed one;
    + {!enqueue_commit} the session's commit (its new version and
      delta) — this issues a ticket in version order;
    + release {!writer_lock} (the next writer proceeds immediately,
      pipelined ahead of durability);
    + {!await_commit} the ticket: once its group's single fsync
      completes, the version is published for readers and the commit is
      acknowledged.

    {2 Group leader protocol}

    Concurrent committers park their commits in a queue.  The first
    awaiting thread becomes the {e leader}: it drains every pending
    ticket (in order), encodes their changes, performs {e one}
    [Wal.append] + fsync for the
    whole group, publishes the group's newest version (versions are
    linear, so it carries all members' effects), wakes the members, and
    steps down; a member whose ticket is still pending leads the next
    group.  Under a commit burst the fsync cost is shared by the whole
    group — the write-throughput ceiling becomes group-size × the
    single-fsync rate.  A failed append poisons the store: every
    member of the failed group gets the error and later commits are
    refused, because acknowledging a write whose durability is unknown
    is worse than stopping.

    {!checkpoint} makes the crash-recovery invariant explicit:

    + quiesce writers and drain the commit queue, so the committed
      version and [last_seq] agree;
    + write the new snapshot atomically (tmp + rename), carrying the
      sequence number of the last logged record;
    + truncate the WAL back to its header.

    A crash between the last two steps is safe: the stale WAL records
    are at or below the snapshot's watermark, so recovery skips them
    instead of applying them twice.  Sequence numbers keep increasing
    across checkpoints and reopens. *)

open Cypher_graph
module Session = Cypher_session.Session

type t

val open_ :
  ?schema:Cypher_schema.Schema.t ->
  ?mode:Cypher_engine.Engine.mode ->
  string ->
  (t, string) result
(** [open_ dir] opens (creating the directory and files if needed) and
    recovers the database.  The error case reports an unreadable or
    corrupt snapshot, a corrupt or old WAL, or a record that does not
    apply.  [mode] is the local session's. *)

val session : t -> Session.t
(** The local session (the CLI shell commits through it); its commits go
    through the same group-commit queue as everyone else's. *)

val snapshot : t -> Graph.t
(** The latest committed durable version — a pointer read behind a
    short mutex.  Keep the value to pin the version; no lock is held
    after return and no unpin is needed. *)

val graph : t -> Graph.t
(** The local session's working graph: equal to {!snapshot} except
    inside a local transaction, where it shows the uncommitted state. *)

val run :
  t -> string -> (Cypher_table.Table.t, Cypher_engine.Engine.error) result
(** Runs one statement through the local session, first syncing it to
    the latest committed version (unless a local transaction is open). *)

val checkpoint : t -> (unit, string) result
(** Quiesces writers, drains the commit queue, snapshots the committed
    graph and truncates the WAL (see above).  Refused while a local
    transaction is open — the snapshot must only ever contain committed
    state.  Blocks while a wire transaction holds the writer lock. *)

val wal_records : t -> int
(** Number of records (one per durable commit) currently in the WAL
    tail (i.e. not yet absorbed by a checkpoint) — observability for
    tests, the CLI and monitoring. *)

val last_seq : t -> int
(** Sequence number of the most recently logged commit (0 for a fresh,
    never-written store). *)

val snapshot_age : t -> float option
(** Seconds since the last checkpoint, or [None] if no checkpoint has
    ever completed.  Anchored on the monotonic clock when this process
    has checkpointed; otherwise derived from the snapshot file's mtime
    and clamped at [>= 0.], so a wall-clock (NTP) step can never report
    a negative age. *)

(** {1 The write path}

    The network server drives these directly so that statement
    execution (under the writer lock) and the fsync wait (off it) are
    decoupled — that decoupling is what lets commits group. *)

val writer_lock : t -> unit
(** Serialises writers.  Readers never take this: they use
    {!snapshot}. *)

val writer_unlock : t -> unit

val head : t -> Graph.t
(** The write base: the newest version produced by any writer, which may
    still be waiting in the commit queue.  A writer must build on this —
    building on {!snapshot} would silently drop queued commits' effects.
    Only stable while holding {!writer_lock}; once the queue drains it
    coincides with {!snapshot}. *)

type ticket
(** A commit parked in the group-commit queue. *)

val enqueue_commit : t -> Session.commit -> ticket
(** Parks a session's commit; its [c_graph] is the version it produced.
    Must be called while holding {!writer_lock}, so tickets are issued
    in version order — the WAL append order and the publication order. *)

val await_commit : t -> ticket -> (unit, string) result
(** Blocks until the ticket's group is flushed (leading the flush if no
    leader is active) and returns its outcome.  Call {e after}
    releasing {!writer_lock}.  [Ok ()] means the commit is fsync'd and
    its version published to {!snapshot}; [Error _] means the append
    failed and nothing of the group was published. *)

(** {1 Replication}

    A primary serves these to replicas; a replica applies through them.
    The stream unit is the {e framed WAL record} — the very bytes that
    landed in the primary's log, CRC included — so replicas re-verify
    integrity with the same checks file recovery uses.

    Sequence alignment invariant: a replica bootstraps by persisting
    the primary's snapshot bytes as its own snapshot, so its local
    sequence numbering continues exactly where the primary's was.
    {!apply_replicated} then requires each batch to start at the
    replica's [last_seq + 1] and re-logs the records locally under the
    same numbers.  Consequences: {!last_seq} on a replica {e is} the
    applied primary sequence number, and a replica restart is ordinary
    crash recovery — no replication-specific persistent state exists. *)

val committed_with_seq : t -> Graph.t * int
(** The committed version together with its WAL watermark, read in one
    critical section so the pair agrees. *)

val encode_committed_snapshot : t -> string
(** The committed version as wire-ready snapshot bytes
    ({!Snapshot.encode} of {!committed_with_seq}) — what a
    bootstrapping replica receives and persists verbatim. *)

type fetch = {
  fr_records : (int * string) list;
      (** [(seq, framed bytes)], ascending and contiguous *)
  fr_resync : bool;
      (** the requested seq is below the buffer floor: the records are
          gone and the replica must re-bootstrap from a snapshot *)
  fr_last_seq : int;  (** the primary's current frontier *)
}

val fetch_since :
  ?max_bytes:int -> t -> from_seq:int -> max_records:int -> fetch
(** Buffered records with seq >= [from_seq], at most [max_records] and
    [max_bytes] (default unbounded).  A request past the frontier returns
    an empty non-resync batch (the caller long-polls); one below the
    floor, or whose first record alone exceeds [max_bytes], flags
    [fr_resync].
    The buffer survives checkpoints (the WAL file is truncated, the
    buffer is not), so a brief replica stall does not force a resync. *)

val set_repl_retention : t -> int -> unit
(** Caps the replication buffer at [n] records (default 16384),
    evicting oldest-first and raising the floor.  Tests use a tiny cap
    to exercise the resync path. *)

val apply_replicated : t -> Wal.record list -> (unit, string) result
(** Replica side: applies a fetched batch's changes (the recovery path)
    and commits it as {e one} group — one local WAL append + fsync of
    the change bytes as received.  The batch must start exactly at this
    store's [last_seq + 1] (decoded, gap-free records are the caller's
    contract); on success the records are durable locally under their
    primary sequence numbers and the new version is published. *)

val reset_from_snapshot : t -> string -> (unit, string) result
(** Replica side, in-place resync: verifies and decodes wire snapshot
    bytes, quiesces writers, drains the commit queue, persists the
    bytes as the local snapshot, drops the local WAL, and swaps the
    committed/head pointers and [last_seq] to the decoded image.
    Equivalent to wiping the directory and re-opening, without
    invalidating the handle other threads hold. *)

(** {1 Publication hook}

    The feed for incremental view maintenance ({!module:Cypher_ivm}): a
    single consumer notified of every newly published committed
    version. *)

val set_on_publish : t -> (Graph.t -> int -> int -> unit) -> unit
(** Registers the publication hook, replacing any previous one.  It is
    called with [(graph, last_seq, trace)] after every flush that
    published a new committed version — [trace] is the trace id of the
    newest flushed commit (0 when untraced, e.g. after a snapshot
    resync), letting view refresh attribute its work to the write that
    triggered it — on a primary once per group flush, on a
    replica once per applied replication batch and after a snapshot
    resync — always outside the store's internal locks, on the flush
    leader's thread.  The hook must be fast and must not commit through
    this store on the calling thread; exceptions are swallowed.
    Consumers needing asynchrony (view refresh does) should only record
    the target and wake their own worker. *)

val clear_on_publish : t -> unit

val close : t -> unit
(** Closes the WAL file descriptor.  Deliberately does {e not}
    checkpoint: close must be equivalent to a crash, so that the
    recovery path is the only path. *)

val snapshot_file : string -> string
(** [snapshot_file dir] is the snapshot path inside a store directory. *)

val wal_file : string -> string

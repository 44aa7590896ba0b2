(** The write-ahead change log.

    The WAL is an append-only file with one record per durable commit;
    it is what makes a commit durable before the next checkpoint
    rewrites the snapshot.  A record holds the commit's {e effect}, not
    its statements: a {!Snapshot} change record (removed ids, the
    after-state of the touched entities, the id watermarks and the index
    set), the trace ids of the requests whose statements it covers, and
    a monotonically increasing sequence number that ties the log to the
    snapshot's [last_seq] watermark.  Replaying a log applies changes
    through {!Cypher_graph.Graph}; it never runs a query, so an old log
    replays to the same graph whatever the engine answers today.

    File layout:

    {v
    "CYWAL" · version u16-LE                    7-byte header, version 3
    record*                                     append-only
    record := len u32-LE · crc32(payload) u32-LE · payload
    payload := seq uvarint · ntraces uvarint · trace uvarint* · change
    v}

    Upgrading: versions 1 and 2 logged statement texts.  An older log
    holding only its header (what a clean, checkpointing stop leaves) is
    rewritten with the version-3 header; one that holds records is
    refused: open it once with the previous binary and checkpoint.

    Recovery semantics of {!scan}:

    - a record whose bytes are complete and whose CRC matches is valid;
    - an {e incomplete} record at the end of the file (the log was cut
      mid-write by a crash) is a {e torn tail}: scanning stops at the
      last valid record and reports [torn = true] with the byte offset
      to truncate to;
    - a {e complete} record whose CRC does not match is corruption, not
      a crash artefact, and the whole scan is refused with an error —
      silently dropping acknowledged commits is worse than failing
      loudly. *)

type record = {
  seq : int;  (** strictly increasing, 1-based across the store's life *)
  traces : int list;
      (** trace ids of the requests whose statements the commit covers,
          in execution order; empty when none was traced *)
  change : string;  (** the commit's effect, {!Snapshot.encode_change} *)
}

(** {1 Appending} *)

type writer

val open_writer : ?next_seq:int -> string -> writer
(** Opens (creating if necessary, upgrading as above) the log for
    appending.  [next_seq] (default 1) is the sequence number the next
    record will get; pass [last valid seq + 1] when reopening an existing
    log.  Raises [Failure] if the file exists but does not start with a
    WAL header, or is an older log that still holds records. *)

val append : writer -> (int list * string) list -> (int * string) list
(** Appends one record per [(traces, change)] — a single [write]
    followed by a single [fsync], so a group of commits reaches the disk
    as one batch — and returns each record's [(seq, framed bytes)].  The
    framed form is byte-identical to what was written to the file (len ·
    crc · payload), so a primary can ship the very same CRC-guarded
    bytes to replicas.  An empty list performs no I/O. *)

val truncate : writer -> unit
(** Cuts the log back to the bare header (checkpoint), with an fsync.
    Sequence numbers keep increasing: the snapshot's [last_seq]
    watermark, not file position, decides what recovery skips. *)

val reset : writer -> next_seq:int -> unit
(** {!truncate} and restart the sequence at [next_seq] — a replica that
    resyncs from a fresh snapshot drops its whole log and continues
    from the snapshot's watermark. *)

val close_writer : writer -> unit

val note_lineage : string -> int -> seq:int -> int list -> unit
(** [note_lineage name dur ~seq traces]: commit lineage, one [name] note
    of [dur] µs per trace, keyed by (trace id, [seq]). *)

(** {1 Recovery} *)

type scan = {
  records : record list;  (** the valid prefix, in append order *)
  valid_len : int;  (** file offset just past the last valid record *)
  torn : bool;  (** an incomplete record was cut off at [valid_len] *)
}

val scan : string -> (scan, string) result
(** Reads the valid prefix of the log (see recovery semantics above); an
    older log scans as empty if it holds only its header, else fails. *)

val decode_framed : string -> (record, string) result
(** Decodes one framed record (len · crc · payload) as shipped over the
    replication stream, applying the same integrity checks as the file
    scan: a truncated, oversized or checksum-failing frame is an
    [Error], never a silently skipped record. *)

(** The replica side of WAL shipping.

    A replica tails a primary over the wire protocol's replication
    verbs and applies the stream into its own {!Cypher_storage.Store}:

    - {e bootstrap}: fetch the primary's committed snapshot ('B',
      chunked), persist the bytes verbatim, and continue from its
      watermark — the replica's sequence numbers are the primary's;
    - {e tailing}: long-poll ('F') for framed WAL records and apply
      each batch through {!Cypher_storage.Store.apply_replicated} (the
      recovery path: changes applied, no query run) as one local group
      commit;
    - {e integrity}: every frame is CRC-checked and the batch must be
      gap-free from [last applied + 1]; any violation triggers a full
      resync instead of a partial apply;
    - {e resilience}: a dropped primary connection is retried with
      exponential backoff and jitter; a fetch below the primary's
      retention floor (replica fell too far behind, or the primary
      restarted) resyncs from a fresh snapshot.

    Progress is exposed on the process registry: [cypher_repl_lag_records]
    (gauge), records/batches applied, resyncs, integrity failures,
    reconnects, and a batch apply-latency histogram. *)

module Store = Cypher_storage.Store
module Wal = Cypher_storage.Wal
module Client = Cypher_server.Client

type config = {
  fetch_max_records : int;  (** records per long-poll answer *)
  fetch_wait_ms : int;  (** primary-side long-poll budget *)
  connect_timeout : float;
  io_timeout : float;  (** socket timeout; must exceed [fetch_wait_ms] *)
  boot_timeout : float;
      (** socket timeout while a snapshot transfer is in flight — the
          primary encodes the whole committed image before the first
          chunk, so this must scale with store size, not fetch size *)
  retry : Client.retry;  (** reconnect backoff policy *)
}

val default_config : config

type t

val start :
  ?config:config -> host:string -> port:int -> Store.t -> (t, string) result
(** [start ~host ~port store] bootstraps [store] from the primary at
    [host:port] and spawns the applier thread.  An empty store (no
    applied history) always takes a full snapshot transfer — it cannot
    prove it shares the primary's lineage, even if the sequence numbers
    happen to align.  A store with history takes a snapshot only when
    the primary no longer serves its position (WAL retention, primary
    restart); otherwise it catches up from the stream.  Fails if the
    primary is unreachable after the configured retries or the
    bootstrap is rejected. *)

val stop : t -> unit
(** Stops the applier thread and closes the primary connection.  The
    store is left open — it is the server's to close. *)

val last_applied : t -> int
(** The highest primary sequence number applied locally (the store's
    [last_seq] — the two are the same number by construction). *)

val last_error : t -> string option
(** The most recent transport/apply error, [None] while healthy. *)

val wait_for_seq : t -> seq:int -> timeout:float -> bool
(** Blocks (bounded) until at least [seq] is applied; [true] iff it
    got there in time. *)

val pause : t -> unit
(** Freezes the applier (tests create controlled lag with this). *)

val resume : t -> unit

val validate_batch :
  expect_seq:int -> string list -> (Wal.record list, string) result
(** Decodes a fetched batch of framed records, enforcing per-frame CRC
    and exact sequence contiguity from [expect_seq].  Exposed for
    direct unit testing of the integrity checks. *)

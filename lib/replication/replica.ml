(* The replica side of WAL shipping.

   A replica is an ordinary server process whose store is fed by this
   module instead of by client writes: a background applier thread
   long-polls the primary for framed WAL records ('F'), verifies each
   frame with the same CRC and contiguity checks file recovery uses,
   and applies batches through {!Store.apply_replicated} — the
   recovery path, which applies each record's change without running
   a query — so the replica's MVCC store publishes the same versions
   the primary's did, under the same sequence numbers.

   Bootstrap and resync both go through the snapshot transfer ('B'):
   the replica persists the primary's snapshot bytes verbatim as its
   own snapshot file, which aligns its sequence numbering with the
   primary's (see the replication section of {!Cypher_storage.Store}).
   Any integrity failure on the stream — a decode error, a CRC
   mismatch, a sequence gap — triggers a resync rather than a
   best-effort apply: a replica must never guess. *)

module Store = Cypher_storage.Store
module Wal = Cypher_storage.Wal
module Client = Cypher_server.Client
module Registry = Cypher_obs.Registry
module Clock = Cypher_obs.Clock

let m_lag =
  Registry.gauge ~help:"records the primary has committed but this replica has not applied"
    "cypher_repl_lag_records"

let m_records =
  Registry.counter ~help:"WAL records applied from the replication stream"
    "cypher_repl_records_applied_total"

let m_batches =
  Registry.counter ~help:"replication batches applied (one local fsync each)"
    "cypher_repl_batches_applied_total"

let m_resyncs =
  Registry.counter ~help:"full snapshot resyncs (bootstrap included)"
    "cypher_repl_resyncs_total"

let m_integrity =
  Registry.counter
    ~help:"replication batches rejected by CRC or sequence checks"
    "cypher_repl_integrity_failures_total"

let m_reconnects =
  Registry.counter ~help:"reconnections to the primary"
    "cypher_repl_reconnects_total"

let m_apply =
  Registry.histogram ~help:"replication batch apply latency (microsecond buckets)"
    "cypher_repl_apply_latency"

type config = {
  fetch_max_records : int;  (* records per long-poll answer *)
  fetch_wait_ms : int;  (* primary-side long-poll budget *)
  connect_timeout : float;
  io_timeout : float;  (* socket read/write timeout; must exceed the poll *)
  boot_timeout : float;  (* socket timeout during a snapshot transfer *)
  retry : Client.retry;  (* reconnect backoff *)
}

let default_config =
  {
    fetch_max_records = 4096;
    fetch_wait_ms = 200;
    connect_timeout = 2.0;
    io_timeout = 10.0;
    boot_timeout = 300.0;
    retry = { Client.attempts = 10; base_delay = 0.05; max_delay = 2.0 };
  }

type t = {
  config : config;
  store : Store.t;
  primary_host : string;
  primary_port : int;
  mutable client : Client.t option;
  mutable stopping : bool;
  mutable paused : bool;  (* tests freeze the applier to create lag *)
  mutable last_error : string option;
  mutable thread : Thread.t option;
}

let last_applied t = Store.last_seq t.store
let last_error t = t.last_error
let pause t = t.paused <- true
let resume t = t.paused <- false

(* Decodes and validates one fetched batch: every frame must pass the
   CRC check and the sequence numbers must be exactly [expect_seq],
   [expect_seq + 1], …  A gap means records were lost between primary
   and replica; a CRC failure means bytes were damaged.  Both are
   grounds for a resync, never for a partial apply. *)
let validate_batch ~expect_seq frames =
  let rec go expect acc = function
    | [] -> Ok (List.rev acc)
    | frame :: rest -> (
      match Wal.decode_framed frame with
      | Error e -> Error e
      | Ok r ->
        if r.Wal.seq <> expect then
          Error
            (Printf.sprintf "sequence gap: expected seq %d, batch carries %d"
               expect r.Wal.seq)
        else go (expect + 1) (r :: acc) rest)
  in
  go expect_seq [] frames

(* --- the applier ------------------------------------------------------- *)

let disconnect t =
  (match t.client with Some c -> Client.close c | None -> ());
  t.client <- None

(* (Re)establishes the primary connection with backoff.  Returns [None]
   only when stopping or when every attempt failed. *)
let connected t =
  match t.client with
  | Some c -> Some c
  | None -> (
    match
      Client.connect_retry ~retry:t.config.retry
        ~connect_timeout:t.config.connect_timeout ~timeout:t.config.io_timeout
        ~host:t.primary_host ~port:t.primary_port ()
    with
    | Ok c ->
      t.client <- Some c;
      t.last_error <- None;
      Some c
    | Error e ->
      t.last_error <- Some e;
      None)

(* Full resync: fetch the primary's committed snapshot and swap it in.
   Afterwards the store's [last_seq] is the snapshot's watermark and
   tailing resumes from there.  The transfer runs under the (much
   larger) bootstrap timeout: the primary encodes the whole committed
   image before the first chunk, which on a large store takes longer
   than any steady-state fetch is allowed to. *)
let resync t client =
  Client.set_timeout client t.config.boot_timeout;
  let fetched = Client.repl_bootstrap client in
  Client.set_timeout client t.config.io_timeout;
  match fetched with
  | Error e -> Error (Client.error_message e)
  | Ok bytes -> (
    match Store.reset_from_snapshot t.store bytes with
    | Ok () ->
      Registry.incr m_resyncs;
      Ok ()
    | Error _ as e -> e)

let apply_batch t frames =
  let expect_seq = Store.last_seq t.store + 1 in
  match validate_batch ~expect_seq frames with
  | Error e ->
    Registry.incr m_integrity;
    Error ("replication stream integrity: " ^ e)
  | Ok records -> (
    let t0 = Cypher_obs.Trace.now_us () in
    match Store.apply_replicated t.store records with
    | Ok () ->
      let dur = Cypher_obs.Trace.now_us () - t0 in
      Registry.observe_us m_apply dur;
      Registry.incr m_batches;
      Registry.add m_records (List.length records);
      (* commit lineage, keyed as the primary's "commit_durable" notes *)
      List.iter
        (fun r -> Wal.note_lineage "replica_apply" dur ~seq:r.Wal.seq r.Wal.traces)
        records;
      Ok ()
    | Error _ as e -> e)

(* One fetch/apply turn.  Any failure drops the connection (the next
   turn reconnects with backoff); an integrity or apply failure also
   forces a resync by leaving the store behind — the primary's floor
   check converts that into [b_resync] only when the records are gone,
   so transient failures just refetch the same batch. *)
let step t =
  match connected t with
  | None -> if not t.stopping then Thread.delay 0.05
  | Some client -> (
    match
      Client.repl_fetch client
        ~from_seq:(Store.last_seq t.store + 1)
        ~max_records:t.config.fetch_max_records
        ~wait_ms:t.config.fetch_wait_ms
    with
    | Error e ->
      t.last_error <- Some (Client.error_message e);
      disconnect t;
      Registry.incr m_reconnects
    | Ok batch -> (
      Registry.gauge_set m_lag
        (max 0 (batch.Client.b_last_seq - Store.last_seq t.store));
      if batch.Client.b_resync then (
        match resync t client with
        | Ok () -> Registry.gauge_set m_lag 0
        | Error e ->
          t.last_error <- Some e;
          disconnect t)
      else
        match batch.Client.b_records with
        | [] -> ()
        | frames -> (
          match apply_batch t frames with
          | Ok () ->
            Registry.gauge_set m_lag
              (max 0 (batch.Client.b_last_seq - Store.last_seq t.store))
          | Error e -> (
            (* integrity failure: do not trust the incremental stream —
               rebuild from a snapshot *)
            t.last_error <- Some e;
            match resync t client with
            | Ok () -> ()
            | Error e ->
              t.last_error <- Some e;
              disconnect t))))

let run t =
  while not t.stopping do
    if t.paused then Thread.delay 0.005 else step t
  done;
  disconnect t

let start ?(config = default_config) ~host ~port store =
  let t =
    {
      config;
      store;
      primary_host = host;
      primary_port = port;
      client = None;
      stopping = false;
      paused = false;
      last_error = None;
      thread = None;
    }
  in
  (* First contact synchronously: the caller learns immediately whether
     the primary is reachable, and the store is bootstrapped before the
     replica starts serving reads. *)
  match connected t with
  | None ->
    Error
      (Printf.sprintf "replica: cannot reach primary %s:%d%s" host port
         (match t.last_error with Some e -> ": " ^ e | None -> ""))
  | Some client -> (
    (* A replica with no applied history cannot prove it shares the
       primary's lineage — the primary may have been seeded from a
       snapshot at the same sequence number with entirely different
       contents — so an empty store always bootstraps.  A replica that
       has applied records before only re-bootstraps when the primary
       says its position is no longer served (retention / restart). *)
    let boot =
      if Store.last_seq store = 0 then resync t client
      else
        match
          Client.repl_fetch client ~from_seq:(Store.last_seq store + 1)
            ~max_records:1 ~wait_ms:0
        with
        | Error e -> Error (Client.error_message e)
        | Ok batch -> if batch.Client.b_resync then resync t client else Ok ()
    in
    match boot with
    | Error e ->
      disconnect t;
      Error ("replica bootstrap failed: " ^ e)
    | Ok () ->
      t.thread <- Some (Thread.create run t);
      Ok t)

let stop t =
  t.stopping <- true;
  Option.iter Thread.join t.thread;
  t.thread <- None

(* Blocks until the replica has applied at least [seq], with a bounded
   wall-clock budget; [true] iff it got there.  Tests and the session-
   consistency suite use this instead of sleeping. *)
let wait_for_seq t ~seq ~timeout =
  let deadline = Clock.now_ns () + int_of_float (timeout *. 1e9) in
  let rec wait () =
    if Store.last_seq t.store >= seq then true
    else if Clock.now_ns () >= deadline then false
    else begin
      Thread.delay 0.001;
      wait ()
    end
  in
  wait ()

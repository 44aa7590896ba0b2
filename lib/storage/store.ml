open Cypher_graph
module Session = Cypher_session.Session
module Registry = Cypher_obs.Registry
module Trace = Cypher_obs.Trace
module Clock = Cypher_obs.Clock

let m_checkpoints =
  Registry.counter ~help:"completed checkpoints (snapshot + WAL truncate)"
    "cypher_storage_checkpoints_total"

let m_recoveries =
  Registry.counter ~help:"store opens that replayed a non-empty WAL tail"
    "cypher_storage_recoveries_total"

let m_replayed =
  Registry.counter ~help:"WAL records applied during recovery"
    "cypher_storage_recovery_replayed_total"

let m_group_flushes =
  Registry.counter ~help:"group-commit flushes (one WAL append + fsync each)"
    "cypher_storage_group_flushes_total"

let m_group_members =
  Registry.counter ~help:"commits made durable by group-commit flushes"
    "cypher_storage_group_members_total"

(* One commit waiting in (or flushed from) the group-commit queue, with
   its records as (traces, change) pairs: a local commit's change is
   encoded when the flush leader asks, outside the writer lock; a
   replica's records come encoded. *)
type pending = {
  p_ticket : int;
  p_records : unit -> (int list * string) list;
  p_graph : Graph.t;
}

type ticket = int

type t = {
  dir : string;
  writer : Wal.writer;
  session : Session.t;  (* the local (CLI / recovery) session *)
  (* Writers — statement execution and version production — serialise on
     [writer_m].  Readers never touch it: they pin [committed] below. *)
  writer_m : Mutex.t;
  (* [m] guards everything else: the committed-version pointer, the WAL
     tail bookkeeping and the group-commit queue.  Critical sections are
     a few pointer moves — never I/O — except in the flush leader, which
     drops [m] around the append+fsync. *)
  m : Mutex.t;
  flushed_cv : Condition.t;
  mutable committed : Graph.t;  (* latest durable published version *)
  (* the newest version produced by any writer, possibly still waiting
     in the commit queue.  The next writer must build on this, not on
     [committed], or it would silently drop the queued commits' effects;
     once the queue drains the two pointers coincide. *)
  mutable head : Graph.t;
  (* records logged since the last checkpoint; mirrors the WAL tail *)
  mutable tail_records : int;
  mutable last_seq : int;
  (* group commit: tickets are issued under [writer_m] in version order;
     one leader appends every pending batch with a single fsync *)
  mutable next_ticket : int;
  mutable flushed : int;  (* highest ticket made durable *)
  mutable pending : pending list;  (* unflushed, unordered *)
  mutable leader : bool;
  mutable failed : (int * string) list;  (* per-ticket append failures *)
  mutable poisoned : string option;  (* a flush failed: stop accepting *)
  (* monotonic anchor of the last checkpoint completed by this process;
     [None] until then (the snapshot may predate the process) *)
  mutable checkpoint_ns : int option;
  (* Replication tail: the framed bytes of recently flushed WAL records,
     seq-ascending, exactly as they hit the file.  Served to replicas by
     {!fetch_since}; survives checkpoints (the file is truncated, the
     buffer is not), so a brief replica stall does not force a resync.
     [repl_floor] is the lowest seq the buffer can serve; a fetch below
     it means the records have been dropped and the replica must
     re-bootstrap from a snapshot.  Guarded by [m]. *)
  repl_tail : (int * string) Queue.t;
  mutable repl_floor : int;
  mutable repl_retention : int;  (* max buffered records *)
  (* Publication hook: called with (graph, last_seq) after each flush
     that published a new committed version — and after a replica
     resync — always {e outside} [m], on the flush leader's thread.
     This is the feed for incremental view maintenance: on a primary it
     fires once per group flush, on a replica once per applied
     replication batch (both go through [flush_group]).  Exceptions are
     swallowed: a consumer bug must not poison commits. *)
  mutable on_publish : (Graph.t -> int -> int -> unit) option;
}

let snapshot_file dir = Filename.concat dir "snapshot.bin"
let wal_file dir = Filename.concat dir "wal.log"

let session t = t.session
let wal_records t = t.tail_records
let last_seq t = t.last_seq

(* The latest committed durable version — a pointer read behind a short
   mutex.  The caller keeps the returned graph (a persistent value) for
   as long as it likes: that is the whole MVCC pinning story. *)
let snapshot t =
  Mutex.lock t.m;
  let g = t.committed in
  Mutex.unlock t.m;
  g

(* The local session's working graph: equal to [snapshot] except inside
   a local transaction, where it shows the uncommitted working state. *)
let graph t = Session.graph t.session

(* The write base: the newest enqueued version.  Only meaningful while
   holding the writer lock (otherwise another writer may move it before
   the caller uses it). *)
let head t =
  Mutex.lock t.m;
  let g = t.head in
  Mutex.unlock t.m;
  g

(* Seconds since the last checkpoint.  Anchored on the monotonic clock
   when this process has checkpointed; otherwise derived from the
   snapshot file's mtime, clamped at >= 0 so an NTP step can never
   report a negative age through [:stats] / the health verb. *)
let snapshot_age t =
  match t.checkpoint_ns with
  | Some ns -> Some (float_of_int (Clock.now_ns () - ns) /. 1e9)
  | None -> (
    match Unix.stat (snapshot_file t.dir) with
    | st -> Some (Float.max 0. (Unix.gettimeofday () -. st.Unix.st_mtime))
    | exception Unix.Unix_error _ -> None)

(* --- the single-writer lock ------------------------------------------- *)

let writer_lock t = Mutex.lock t.writer_m
let writer_unlock t = Mutex.unlock t.writer_m

(* --- group commit ------------------------------------------------------ *)

(* Caller holds [writer_m], so tickets are issued in the order versions
   were produced; that order is the WAL append order and the publication
   order. *)
let enqueue t ~graph records =
  Mutex.lock t.m;
  let ticket = t.next_ticket in
  t.next_ticket <- ticket + 1;
  t.head <- graph;
  t.pending <-
    { p_ticket = ticket; p_records = records; p_graph = graph } :: t.pending;
  Mutex.unlock t.m;
  ticket

let enqueue_commit t (c : Session.commit) =
  let change () = Snapshot.encode_change ~base:c.c_base c.c_graph c.c_delta in
  enqueue t ~graph:c.c_graph (fun () -> [ (c.c_traces, change ()) ])

(* Flushes [group] (sorted by ticket): one [Wal.append] + fsync for every
   member, then publication of the newest version.  Runs without [m]
   held; returns with it re-taken. *)
let flush_group t group =
  let published = ref None in
  let members = List.map (fun p -> p.p_records ()) group in
  let records = List.concat members in
  let result =
    match Wal.append t.writer records with
    | framed -> Ok framed
    | exception e -> Error (Printexc.to_string e)
  in
  (* Commit lineage: a durability marker per trace, emitted on the flush
     leader's thread on behalf of the request's trace. *)
  (match result with
  | Ok framed ->
    List.iter2
      (fun (seq, _) (trs, _) -> Wal.note_lineage "commit_durable" 0 ~seq trs)
      framed records
  | Error _ -> ());
  Mutex.lock t.m;
  (match result with
  | Ok framed ->
    t.tail_records <- t.tail_records + List.length framed;
    List.iter
      (fun (seq, bytes) ->
        if seq > t.last_seq then t.last_seq <- seq;
        (* the record is durable here (the fsync above succeeded), so it
           is safe to hand to replicas *)
        Queue.add (seq, bytes) t.repl_tail)
      framed;
    while Queue.length t.repl_tail > t.repl_retention do
      let dropped_seq, _ = Queue.pop t.repl_tail in
      t.repl_floor <- dropped_seq + 1
    done;
    (* versions are linear, so the group's newest graph carries every
       member's effects; publishing it publishes them all in order *)
    (match (List.rev group, List.rev members) with
    | newest :: _, newest_records :: _ ->
      (* the trace the publication is attributed to: the newest member's
         last trace (coalesced members' traces are carried by their own
         per-record lineage spans above) *)
      let trace =
        match List.rev (List.concat_map fst newest_records) with
        | tr :: _ -> tr
        | [] -> 0
      in
      t.committed <- newest.p_graph;
      published := Some (newest.p_graph, trace)
    | _ -> ());
    Registry.incr m_group_flushes;
    Registry.add m_group_members (List.length group)
  | Error e ->
    (* an fsync that failed leaves durability undecided: report the
       error to every member and refuse all further commits rather than
       acknowledging writes that may not survive a crash *)
    t.failed <-
      List.map (fun p -> (p.p_ticket, e)) group @ t.failed;
    t.poisoned <- Some e);
  let top = List.fold_left (fun acc p -> max acc p.p_ticket) t.flushed group in
  t.flushed <- top;
  Condition.broadcast t.flushed_cv;
  (* Notify the publication hook outside [m] but while still holding
     flush leadership: releasing leadership first would let the next
     leader flush and deliver its hook call ahead of this one, so
     consumers (view refresh, replication fan-out) could observe
     publications out of commit order.  The waiters woken above do not
     depend on the hook — they only check [t.flushed] — so commit
     acknowledgement is not delayed; only the next group's fsync
     serializes behind the hook, which must therefore stay cheap
     (IVM's notify just swaps a target and signals). *)
  (match (t.on_publish, !published) with
  | Some f, Some (g, trace) ->
    let seq = t.last_seq in
    Mutex.unlock t.m;
    (try f g seq trace with _ -> ());
    Mutex.lock t.m
  | _ -> ());
  t.leader <- false;
  Condition.broadcast t.flushed_cv

(* Waits until [ticket] is durable (leading a flush if no leader is
   active), then reports its outcome.  Must be called after releasing
   the writer lock, so the next writer executes while this group syncs. *)
let await_commit t ticket =
  Mutex.lock t.m;
  let rec loop () =
    if t.flushed >= ticket then begin
      let res =
        match List.assoc_opt ticket t.failed with
        | Some e ->
          t.failed <- List.remove_assoc ticket t.failed;
          Error e
        | None -> Ok ()
      in
      Mutex.unlock t.m;
      res
    end
    else if t.leader then begin
      Condition.wait t.flushed_cv t.m;
      loop ()
    end
    else begin
      match t.poisoned with
      | Some e ->
        Mutex.unlock t.m;
        Error e
      | None ->
        t.leader <- true;
        let group =
          List.sort (fun a b -> compare a.p_ticket b.p_ticket) t.pending
        in
        t.pending <- [];
        Mutex.unlock t.m;
        flush_group t group;
        (* m is held again and our ticket is in the flushed range *)
        loop ()
    end
  in
  loop ()

(* Appends a committed batch and publishes [graph] through the group
   commit queue, serialising with other writers.  This is the local
   session's commit hook; the network server drives [writer_lock] /
   [enqueue_commit] / [await_commit] itself so statement execution and
   the fsync wait are decoupled. *)
let local_commit t commit =
  writer_lock t;
  let ticket = enqueue_commit t commit in
  writer_unlock t;
  match await_commit t ticket with
  | Ok () -> ()
  | Error e -> failwith ("commit failed: " ^ e)

(* Runs a statement through the local session, first syncing it to the
   latest committed version (a no-op unless a server shares the store). *)
let run t text =
  if not (Session.in_transaction t.session) then
    Session.set_graph t.session (snapshot t);
  Session.run t.session text

let ensure_dir dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else Error (dir ^ ": exists and is not a directory")
  else
    match Sys.mkdir dir 0o755 with
    | () -> Ok ()
    | exception Sys_error e -> Error e

let ( let* ) = Result.bind

(* Logged changes applied in order with ids preserved; failing means the
   log and the state it is applied to disagree, so no record is skipped. *)
let apply_records g records =
  List.fold_left
    (fun g r ->
      let* g = g in
      Result.map_error
        (Printf.sprintf "WAL record %d does not apply: %s" r.Wal.seq)
        (Snapshot.apply_change g r.Wal.change))
    (Ok g) records

let open_ ?schema ?mode dir =
  let* () = ensure_dir dir in
  let snap = snapshot_file dir in
  let wal = wal_file dir in
  (* 1. latest snapshot, if any *)
  let* base, snap_seq =
    if Sys.file_exists snap then Snapshot.load_with_seq snap
    else Ok (Graph.empty, 0)
  in
  (* 2. the WAL tail: drop a torn last record, refuse a corrupt interior,
     skip records the snapshot already contains *)
  let* records, next_seq =
    if not (Sys.file_exists wal) then Ok ([], snap_seq + 1)
    else
      let* scan = Wal.scan wal in
      if scan.Wal.torn then Unix.truncate wal scan.Wal.valid_len;
      let last_seq =
        List.fold_left (fun acc r -> max acc r.Wal.seq) snap_seq
          scan.Wal.records
      in
      let tail =
        List.filter (fun r -> r.Wal.seq > snap_seq) scan.Wal.records
      in
      Ok (tail, last_seq + 1)
  in
  let* g =
    Trace.with_span "recovery_replay" (fun () ->
        if records <> [] then Registry.incr m_recoveries;
        Registry.add m_replayed (List.length records);
        apply_records base records)
  in
  (* 3. wire the durable session: commits go through the group commit
     queue (append + fsync + publish) *)
  let writer = Wal.open_writer ~next_seq wal in
  let store = ref None in
  let on_commit commit =
    match !store with Some t -> local_commit t commit | None -> ()
  in
  let session = Session.create ?schema ?mode ~on_commit g in
  let t =
    {
      dir;
      writer;
      session;
      writer_m = Mutex.create ();
      m = Mutex.create ();
      flushed_cv = Condition.create ();
      committed = g;
      head = g;
      tail_records = List.length records;
      last_seq = next_seq - 1;
      next_ticket = 1;
      flushed = 0;
      pending = [];
      leader = false;
      failed = [];
      poisoned = None;
      checkpoint_ns = None;
      repl_tail = Queue.create ();
      repl_floor = next_seq;
      repl_retention = 16_384;
      on_publish = None;
    }
  in
  store := Some t;
  Ok t

(* A checkpoint must capture a (graph, last_seq) pair that agree —
   otherwise the truncate could drop records the snapshot lacks.  Taking
   [writer_m] stops new commits from being enqueued, draining the queue
   makes every issued ticket durable, and then the committed pointer and
   [last_seq] are exactly in step. *)
let checkpoint t =
  if Session.in_transaction t.session then
    Error "checkpoint refused: a transaction is open"
  else begin
    Trace.with_span "checkpoint" @@ fun () ->
    Mutex.lock t.writer_m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.writer_m) @@ fun () ->
    Mutex.lock t.m;
    while t.leader || t.pending <> [] do
      Condition.wait t.flushed_cv t.m
    done;
    let g = t.committed and seq = t.last_seq in
    Mutex.unlock t.m;
    match Snapshot.save ~last_seq:seq g (snapshot_file t.dir) with
    | () ->
      Wal.truncate t.writer;
      Mutex.lock t.m;
      t.tail_records <- 0;
      Mutex.unlock t.m;
      t.checkpoint_ns <- Some (Clock.now_ns ());
      Registry.incr m_checkpoints;
      Ok ()
    | exception Sys_error e -> Error ("checkpoint failed: " ^ e)
    | exception Unix.Unix_error (err, _, _) ->
      Error ("checkpoint failed: " ^ Unix.error_message err)
  end

(* --- replication ------------------------------------------------------ *)

(* A (graph, last_seq) pair that agree: both are read in one critical
   section, and [flush_group] updates them together under the same
   lock, so the seq really is the watermark of the returned version. *)
let committed_with_seq t =
  Mutex.lock t.m;
  let g = t.committed and seq = t.last_seq in
  Mutex.unlock t.m;
  (g, seq)

(* The committed version as wire-ready snapshot bytes.  This is what a
   bootstrapping replica receives; it persists the very same bytes as
   its own snapshot file, so its sequence numbering continues exactly
   where the primary's was at encode time. *)
let encode_committed_snapshot t =
  let g, seq = committed_with_seq t in
  Snapshot.encode ~last_seq:seq g

let set_repl_retention t n =
  Mutex.lock t.m;
  t.repl_retention <- max 1 n;
  while Queue.length t.repl_tail > t.repl_retention do
    let dropped_seq, _ = Queue.pop t.repl_tail in
    t.repl_floor <- dropped_seq + 1
  done;
  Mutex.unlock t.m

type fetch = {
  fr_records : (int * string) list;
      (* (seq, framed bytes), ascending, contiguous *)
  fr_resync : bool;  (* requested seq below the buffer floor *)
  fr_last_seq : int;  (* the primary's current frontier *)
}

(* Records with seq >= [from_seq], at most [max_records] of them, from
   the in-memory replication tail.  A request below the buffer floor
   (records already dropped, or a primary restart that emptied the
   buffer) cannot be served incrementally and flags a resync: the
   replica must re-bootstrap from a snapshot.  [from_seq] past the
   frontier returns an empty, non-resync batch — the caller long-polls.
   The batch stops before the record that would take it past
   [max_bytes]; a first record that alone exceeds it (a bulk commit's
   change) flags a resync too, since only the chunked snapshot transfer
   can carry it. *)
let fetch_since ?(max_bytes = max_int) t ~from_seq ~max_records =
  Mutex.lock t.m;
  let res =
    if from_seq > t.last_seq then
      { fr_records = []; fr_resync = false; fr_last_seq = t.last_seq }
    else if from_seq < t.repl_floor then
      { fr_records = []; fr_resync = true; fr_last_seq = t.last_seq }
    else begin
      let taken = ref 0 and bytes = ref 0 in
      let acc = ref [] in
      Queue.iter
        (fun (seq, framed) ->
          if seq >= from_seq && !taken < max_records then begin
            bytes := !bytes + String.length framed;
            if !bytes <= max_bytes then begin
              acc := (seq, framed) :: !acc;
              incr taken
            end
            else taken := max_records
          end)
        t.repl_tail;
      {
        fr_records = List.rev !acc;
        fr_resync = !acc = [] && !bytes > 0;
        fr_last_seq = t.last_seq;
      }
    end
  in
  Mutex.unlock t.m;
  res

(* Applies a fetched batch of primary WAL records on a replica, then
   commits the whole batch as one group — one local WAL append + fsync
   per fetched batch, of the very change bytes the primary logged.  The
   replica's writer assigns sequence numbers starting at its own
   [last_seq + 1]; because the batch is required to start exactly
   there, the records land in the replica's log under the {e same}
   sequence numbers they had on the primary, so [last_seq] on a replica
   {e is} the applied primary seq and a replica restart is ordinary
   recovery. *)
let apply_replicated t records =
  match records with
  | [] -> Ok ()
  | first :: _ ->
    writer_lock t;
    let expect = t.last_seq + 1 in
    let applied =
      if first.Wal.seq <> expect then
        Error
          (Printf.sprintf
             "replicated batch starts at seq %d, replica expects %d"
             first.Wal.seq expect)
      else apply_records (head t) records
    in
    match applied with
    | Error e ->
      writer_unlock t;
      Error e
    | Ok g ->
      let ticket =
        enqueue t ~graph:g (fun () ->
            List.map (fun r -> (r.Wal.traces, r.Wal.change)) records)
      in
      writer_unlock t;
      let res = await_commit t ticket in
      (match res with
      | Ok () -> Session.set_graph t.session (snapshot t)
      | Error _ -> ());
      res

(* In-place resync from wire snapshot bytes: quiesce writers, drain the
   commit queue, persist the bytes as the local snapshot, drop the
   local WAL, and swap every pointer to the decoded graph.  Equivalent
   to wiping the directory and re-opening, without reopening file
   descriptors or invalidating the [t] other threads hold. *)
let reset_from_snapshot t bytes =
  match Snapshot.decode bytes with
  | Error e -> Error ("resync snapshot rejected: " ^ e)
  | Ok (g, seq) ->
    if Session.in_transaction t.session then
      Error "resync refused: a transaction is open"
    else begin
      Mutex.lock t.writer_m;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.writer_m) @@ fun () ->
      Mutex.lock t.m;
      while t.leader || t.pending <> [] do
        Condition.wait t.flushed_cv t.m
      done;
      Mutex.unlock t.m;
      match Snapshot.save_encoded ~bytes (snapshot_file t.dir) with
      | exception Sys_error e -> Error ("resync failed: " ^ e)
      | exception Unix.Unix_error (err, _, _) ->
        Error ("resync failed: " ^ Unix.error_message err)
      | () ->
        Wal.reset t.writer ~next_seq:(seq + 1);
        Mutex.lock t.m;
        t.committed <- g;
        t.head <- g;
        t.last_seq <- seq;
        t.tail_records <- 0;
        Queue.clear t.repl_tail;
        t.repl_floor <- seq + 1;
        Mutex.unlock t.m;
        Session.set_graph t.session g;
        t.checkpoint_ns <- Some (Clock.now_ns ());
        (match t.on_publish with
        | Some f -> ( try f g seq 0 with _ -> ())
        | None -> ());
        Ok ()
    end

let set_on_publish t f =
  Mutex.lock t.m;
  t.on_publish <- Some f;
  Mutex.unlock t.m

let clear_on_publish t =
  Mutex.lock t.m;
  t.on_publish <- None;
  Mutex.unlock t.m

let close t = Wal.close_writer t.writer

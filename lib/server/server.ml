(* The concurrent query server.

   One process, one shared {!Cypher_storage.Store}, one systhread per
   connection, hosted on request domains: the accept loop hands each
   connection to {!Cypher_engine.Domain_pool.spawn_thread}, which starts
   its thread on the domain hosting the fewest live connections — the
   pool's domains (one per core beyond the first) and the server's own.
   Reads on different domains run in parallel, so a long read on one
   connection no longer holds the runtime lock every other connection
   waits on.  Every connection gets a private {!Cypher_session.Session}
   — its own plan cache and its own transaction state.

   Concurrency discipline is MVCC (see DESIGN.md):
   - every statement is classified read/write from its AST up front
     ({!Cypher_engine.Engine.classify_cached}), so a write executes
     exactly once and a read never speculates;
   - a read pins the latest committed version ({!Store.snapshot} — a
     pointer read behind a short mutex) and runs against it with NO
     lock held: a slow analytic read cannot stall writers, and a write
     burst cannot starve readers;
   - writers serialise only among themselves on the store's writer
     lock; their committed batches go through the store's WAL group
     commit — the writer lock is released before the fsync wait, so
     the next writer executes while the previous group syncs and
     concurrent commits share one fsync;
   - an explicit transaction holds the writer lock from BEGIN to the
     outermost COMMIT/ROLLBACK; readers on other connections keep
     reading the committed version throughout.

   Timeouts are cooperative: the engine is not preemptible, so the
   server measures each request's wall-clock time and converts an
   overrun into a typed [Timeout] error (the work is complete but its
   result is withheld); socket-level timeouts bound dead peers. *)

module Store = Cypher_storage.Store
module Session = Cypher_session.Session
module Engine = Cypher_engine.Engine
module Domain_pool = Cypher_engine.Domain_pool
module Config = Cypher_semantics.Config
module Value = Cypher_values.Value
module Registry = Cypher_obs.Registry
module Trace = Cypher_obs.Trace
module Slowlog = Cypher_obs.Slowlog
module Qstats = Cypher_obs.Qstats
module Ivm = Cypher_ivm.Ivm

type config = {
  host : string;
  port : int;  (* 0 picks an ephemeral port; read it back with {!port} *)
  backlog : int;
  max_frame : int;
  request_timeout : float;  (* seconds; 0. disables the check *)
  replica_of : (string * int) option;
      (* [Some (host, port)] makes this server a read-only replica of
         the primary at that address: writes and BEGIN are rejected
         with [Read_only_replica] naming the primary.  The server does
         not replicate by itself — a {!Cypher_replication.Replica}
         applies the stream into the shared store. *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7688;
    backlog = 64;
    max_frame = Protocol.default_max_frame;
    request_timeout = 30.;
    replica_of = None;
  }

let m_readonly_rejected =
  Registry.counter ~help:"writes rejected because this server is a replica"
    "cypher_server_readonly_rejected_total"

let m_request_domains =
  Registry.gauge ~help:"domains hosting connection threads"
    "cypher_server_request_domains"

let m_stale_reads =
  Registry.counter
    ~help:"reads rejected because the replica could not reach min_seq in time"
    "cypher_server_stale_reads_total"

(* Snapshot bootstrap chunk size: large enough that a 1M-node graph
   ships in a handful of round trips, small enough to stay far under
   the frame limit. *)
let boot_chunk_limit = 4 * 1024 * 1024

type t = {
  config : config;
  store : Store.t;
  schema : Cypher_schema.Schema.t;
  mode : Engine.mode;
  metrics : Metrics.t;
  (* maintained views, fed by the store's publication hook — on a
     primary every group flush, on a replica every applied replication
     batch, so subscriptions work identically on both *)
  views : Ivm.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stopping : bool Atomic.t;  (* read by connection threads on every domain *)
  request_domains : int;
  state_lock : Mutex.t;
  mutable conn_threads : Thread.t list;
  mutable accept_thread : Thread.t option;
}

let port t = t.bound_port
let request_domains t = t.request_domains
let metrics t = t.metrics
let store t = t.store
let views t = t.views

(* --- errors ------------------------------------------------------------- *)

let error_response kind message = Protocol.Error { kind; message }

(* An engine error keeps its kind on the wire, with the bare message; the
   client renders both ({!Client.error_message}). *)
let engine_error : Engine.error -> Protocol.response = function
  | Parse_error m -> error_response Protocol.Parse_error m
  | Syntax_error m -> error_response Protocol.Syntax_error m
  | Type_error m -> error_response Protocol.Type_error m
  | Runtime_error m -> error_response Protocol.Runtime_error m
  | Unsupported m -> error_response Protocol.Unsupported m

let no_transaction = engine_error (Runtime_error "no open transaction")

let table_response ?(seq = 0) table =
  let columns = Cypher_table.Table.fields table in
  let rows =
    Cypher_table.Table.fold_left
      (fun acc row ->
        List.map (Cypher_table.Record.find_or_null row) columns :: acc)
      [] table
  in
  Protocol.Result { columns; rows = List.rev rows; seq }

(* --- per-connection state --------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  conn_id : int;  (* process-unique; labels slowlog lines and spans *)
  session : Session.t;
  (* the commit captured by the session's [on_commit] hook, handed to
     the store's group commit once the writer lock can be released *)
  pending : Session.commit option ref;
  mutable tx_depth : int;  (* > 0 iff this connection holds the writer lock *)
  (* the snapshot image pinned by a bootstrap ('B' at offset 0), so
     every later chunk comes from the same committed version even while
     writes keep landing *)
  mutable boot_pin : string option;
}

let is_keyword text kw = String.uppercase_ascii (String.trim text) = kw

let store_health t conn =
  let stats = Session.cache_stats conn.session in
  [
    ("wal_records", Value.Int (Store.wal_records t.store));
    ("last_seq", Value.Int (Store.last_seq t.store));
    ( "snapshot_age_s",
      match Store.snapshot_age t.store with
      | Some age -> Value.Float age
      | None -> Value.Null );
    ("plan_cache_hits", Value.Int stats.Engine.cache_hits);
    ("plan_cache_misses", Value.Int stats.Engine.cache_misses);
    ("plan_cache_replans", Value.Int stats.Engine.cache_replans);
    ("plan_cache_evictions", Value.Int stats.Engine.cache_evictions);
  ]

(* Hands the commit captured by the connection's [on_commit] hook to the
   store's group commit and releases the writer lock.  The lock is
   dropped *before* the fsync wait: the next writer executes while this
   group syncs, which is what lets concurrent commits share one fsync.
   Called with the writer lock held; always releases it. *)
let finish_commit t conn =
  let commit = !(conn.pending) in
  conn.pending := None;
  match commit with
  | None ->
    (* write-classified but effect-free (or read-only in a tx): nothing
       to log, nothing to publish *)
    Store.writer_unlock t.store;
    Ok ()
  | Some commit ->
    let ticket = Store.enqueue_commit t.store commit in
    Store.writer_unlock t.store;
    Trace.with_span "group_commit" (fun () ->
        Store.await_commit t.store ticket)

(* A write (or BEGIN) that reaches a replica is a routing mistake, not
   a server fault: the typed rejection names the primary so the client
   can redirect without parsing prose. *)
let read_only_rejection t =
  Registry.incr m_readonly_rejected;
  let where =
    match t.config.replica_of with
    | Some (host, port) -> Printf.sprintf "; writes go to %s:%d" host port
    | None -> ""
  in
  error_response Protocol.Read_only_replica
    ("this server is a read-only replica" ^ where)

(* Session consistency: a client that has seen commit seq [n] may ask a
   replica to serve reads no staler than [n].  The wait is a bounded
   poll — replication lag is normally well under a millisecond of apply
   time, so a short budget covers it; a replica that cannot catch up in
   time answers with a typed [Stale_replica] and the client falls back
   to the primary rather than blocking indefinitely. *)
let await_freshness t ~min_seq ~wait_ms =
  let deadline =
    Cypher_obs.Clock.now_ns () + (wait_ms * 1_000_000)
  in
  let rec wait () =
    if Store.last_seq t.store >= min_seq then Ok ()
    else if Cypher_obs.Clock.now_ns () >= deadline then begin
      Registry.incr m_stale_reads;
      Error
        (error_response Protocol.Stale_replica
           (Printf.sprintf
              "replica is at seq %d, read requires %d (waited %dms)"
              (Store.last_seq t.store) min_seq wait_ms))
    end
    else begin
      Thread.delay 0.001;
      wait ()
    end
  in
  wait ()

(* Executes one Query request.  Caller handles metrics and framing.
   [min_seq] is the read's freshness floor (see {!await_freshness}). *)
let execute t conn ~min_seq text params =
  let replica = t.config.replica_of <> None in
  let fresh =
    match min_seq with
    | Some (seq, wait_ms) -> await_freshness t ~min_seq:seq ~wait_ms
    | None -> Ok ()
  in
  match fresh with
  | Error stale -> stale
  | Ok () ->
  if is_keyword text "BEGIN" then begin
    (* a transaction exists to write; a replica refuses it up front
       rather than failing at the first update inside it *)
    if replica then read_only_rejection t
    else begin
      if conn.tx_depth = 0 then begin
        Trace.with_span "writer_lock" (fun () -> Store.writer_lock t.store);
        Session.set_graph conn.session (Store.head t.store)
      end;
      Session.begin_tx conn.session;
      conn.tx_depth <- conn.tx_depth + 1;
      Protocol.Result { columns = []; rows = []; seq = 0 }
    end
  end
  else if is_keyword text "COMMIT" then begin
    if conn.tx_depth = 0 then no_transaction
    else
      match Trace.with_span "commit" (fun () -> Session.commit conn.session) with
      | Ok () ->
        conn.tx_depth <- conn.tx_depth - 1;
        if conn.tx_depth = 0 then begin
          match finish_commit t conn with
          | Ok () ->
            Protocol.Result
              { columns = []; rows = []; seq = Store.last_seq t.store }
          | Error e ->
            error_response Protocol.Server_error ("commit failed: " ^ e)
        end
        else Protocol.Result { columns = []; rows = []; seq = 0 }
      | Error e ->
        (* an outermost commit that fails validation has rolled the
           whole transaction back: nothing was published or logged *)
        conn.tx_depth <- 0;
        conn.pending := None;
        Store.writer_unlock t.store;
        engine_error e
  end
  else if is_keyword text "ROLLBACK" then begin
    if conn.tx_depth = 0 then no_transaction
    else
      match Session.rollback conn.session with
      | Ok () ->
        conn.tx_depth <- conn.tx_depth - 1;
        if conn.tx_depth = 0 then begin
          conn.pending := None;
          Store.writer_unlock t.store
        end;
        Protocol.Result { columns = []; rows = []; seq = 0 }
      | Error e -> engine_error e
  end
  else if conn.tx_depth > 0 then begin
    (* inside a transaction: the writer lock is already held and the
       session's working graph carries the uncommitted state *)
    Session.set_params conn.session params;
    match Session.run conn.session text with
    | Ok table -> table_response table
    | Error e -> engine_error e
  end
  else begin
    (* Auto-commit statement, classified from the AST up front so it
       executes exactly once. *)
    match
      Engine.classify_cached ~cache:(Session.plan_cache conn.session) text
    with
    | Engine.Read_only -> (
      (* MVCC read: pin the latest committed version and run with no
         lock held — a writer can commit concurrently and a write burst
         cannot delay this request. *)
      let g = Store.snapshot t.store in
      let config = Config.with_params params Config.default in
      match
        Engine.query_cached
          ~cache:(Session.plan_cache conn.session)
          ~config ~mode:t.mode g text
      with
      | Ok outcome -> table_response outcome.Engine.table
      | Error e -> engine_error e)
    | Engine.Update when replica -> read_only_rejection t
    | Engine.Update -> (
      (* Single-writer path: rebase the session on the latest committed
         version, execute once (validation + capture of the commit),
         then group-commit.  The lock acquisition is spanned so
         the slow-query log can tell waiting from work. *)
      Trace.with_span "writer_lock" (fun () -> Store.writer_lock t.store);
      let result =
        match
          Session.set_graph conn.session (Store.head t.store);
          Session.set_params conn.session params;
          conn.pending := None;
          Session.run conn.session text
        with
        | r -> r
        | exception e ->
          Store.writer_unlock t.store;
          raise e
      in
      match result with
      | Ok table -> (
        match finish_commit t conn with
        | Ok () -> table_response ~seq:(Store.last_seq t.store) table
        | Error e ->
          error_response Protocol.Server_error ("commit failed: " ^ e))
      | Error e ->
        Store.writer_unlock t.store;
        engine_error e)
  end

(* The whole process-wide registry — engine, storage and server series
   alike — as protocol stats pairs, for the 'M' verb. *)
let registry_pairs () =
  List.map
    (function
      | Registry.Int_sample (name, v) -> (name, Value.Int v)
      | Registry.Float_sample (name, v) -> (name, Value.Float v))
    (Registry.samples ())

(* One row per registered view, as an ordinary Result so every client
   renders it like a query. *)
let view_list_response t =
  let columns =
    [
      "name"; "query"; "seq"; "rows"; "mode"; "refreshes"; "incremental";
      "fallback"; "subscribers"; "error";
    ]
  in
  let rows =
    List.map
      (fun (i : Ivm.view_info) ->
        [
          Value.String i.Ivm.vi_name;
          Value.String i.Ivm.vi_query;
          Value.Int i.Ivm.vi_seq;
          Value.Int i.Ivm.vi_rows;
          Value.String (if i.Ivm.vi_incremental then "incremental" else "fallback");
          Value.Int i.Ivm.vi_refreshes;
          Value.Int i.Ivm.vi_incrementals;
          Value.Int i.Ivm.vi_fallbacks;
          Value.Int i.Ivm.vi_subscribers;
          (match i.Ivm.vi_error with
          | Some e -> Value.String e
          | None -> Value.Null);
        ])
      (Ivm.view_infos t.views)
  in
  Protocol.Result { columns; rows; seq = Ivm.last_refreshed_seq t.views }

let delta_response (f : Ivm.frame) =
  Protocol.Delta
    {
      view = f.Ivm.f_view;
      seq = f.Ivm.f_seq;
      init = f.Ivm.f_init;
      columns = f.Ivm.f_columns;
      added = f.Ivm.f_added;
      removed = f.Ivm.f_removed;
      trace = f.Ivm.f_trace;
    }

(* Per-fingerprint workload statistics ('T'), as an ordinary Result
   table so every client renders it like a query.  Served identically
   by primaries and replicas — a replica's table reflects the reads it
   served plus the writes it applied. *)
let query_stats_response () =
  let columns =
    [
      "fingerprint"; "query"; "calls"; "errors"; "rows"; "db_hits";
      "plan_cache_hits"; "total_ms"; "p50_us"; "p95_us"; "max_us";
      "last_trace_id";
    ]
  in
  let rows =
    List.map
      (fun (s : Qstats.stat) ->
        [
          Value.String (Trace.id_to_hex s.Qstats.s_hash);
          Value.String s.Qstats.s_query;
          Value.Int s.Qstats.s_calls;
          Value.Int s.Qstats.s_errors;
          Value.Int s.Qstats.s_rows;
          Value.Int s.Qstats.s_db_hits;
          Value.Int s.Qstats.s_cache_hits;
          Value.Float (float_of_int s.Qstats.s_total_us /. 1e3);
          Value.Int s.Qstats.s_p50_us;
          Value.Int s.Qstats.s_p95_us;
          Value.Int s.Qstats.s_max_us;
          (if s.Qstats.s_last_trace = 0 then Value.Null
           else Value.String (Trace.id_to_hex s.Qstats.s_last_trace));
        ])
      (Qstats.snapshot ())
  in
  Protocol.Result { columns; rows; seq = 0 }

(* Cluster-health summary ('C'): one flat stats map an operator can eye
   in a second — role, watermark, replication lag, view freshness and
   fallback state, group-commit batching, connections, subscriptions. *)
let cluster_health_response t =
  let sample name =
    List.find_map
      (function
        | Registry.Int_sample (n, v) when String.equal n name -> Some v
        | _ -> None)
      (Registry.samples ())
  in
  let counter name = Option.value ~default:0 (sample name) in
  let infos = Ivm.view_infos t.views in
  let subs =
    List.fold_left (fun a (i : Ivm.view_info) -> a + i.Ivm.vi_subscribers) 0 infos
  in
  let fallbacks =
    List.length (List.filter (fun (i : Ivm.view_info) -> not i.Ivm.vi_incremental) infos)
  in
  let view_min_seq =
    List.fold_left
      (fun acc (i : Ivm.view_info) ->
        match acc with
        | None -> Some i.Ivm.vi_seq
        | Some m -> Some (min m i.Ivm.vi_seq))
      None infos
  in
  let flushes = counter "cypher_storage_group_flushes_total" in
  let members = counter "cypher_storage_group_members_total" in
  let role, primary =
    match t.config.replica_of with
    | Some (host, port) -> ("replica", Value.String (Printf.sprintf "%s:%d" host port))
    | None -> ("primary", Value.Null)
  in
  [
    ("role", Value.String role);
    ("primary", primary);
    ("last_seq", Value.Int (Store.last_seq t.store));
    ( "replication_lag_records",
      match sample "cypher_repl_lag_records" with
      | Some v -> Value.Int v
      | None -> Value.Null );
    ("views", Value.Int (List.length infos));
    ("views_fallback", Value.Int fallbacks);
    ( "views_min_seq",
      match view_min_seq with Some s -> Value.Int s | None -> Value.Null );
    ("subscriptions", Value.Int subs);
    ("group_commit_flushes", Value.Int flushes);
    ("group_commit_members", Value.Int members);
    ( "group_commit_avg_batch",
      if flushes = 0 then Value.Null
      else Value.Float (float_of_int members /. float_of_int flushes) );
    ("connections_active", Value.Int (Metrics.active_connections t.metrics));
    ("query_fingerprints", Value.Int (List.length (Qstats.snapshot ())));
  ]

(* The shared request tail: stamp the time budget, frame the response,
   record metrics. *)
let finish_request t conn ~started_ns ~timeout ~payload response =
  let elapsed =
    float_of_int (Cypher_obs.Clock.now_ns () - started_ns) /. 1e9
  in
  let timed_out = timeout > 0. && elapsed > timeout in
  let response =
    if timed_out then
      error_response Protocol.Timeout
        (Printf.sprintf "request exceeded its %.3fs time budget (took %.3fs)"
           timeout elapsed)
    else response
  in
  let encoded = Protocol.encode_response response in
  Protocol.write_frame conn.fd encoded;
  let outcome =
    if timed_out then `Timeout
    else match response with Protocol.Error _ -> `Error | _ -> `Ok
  in
  Metrics.observe t.metrics ~elapsed
    ~bytes_in:(String.length payload + 4)
    ~bytes_out:(String.length encoded + 4)
    ~outcome

let rec handle_request t conn payload =
  (* monotonic, so the timeout check and the latency histogram cannot be
     skewed by an NTP wall-clock step mid-request *)
  let started_ns = Cypher_obs.Clock.now_ns () in
  let timeout = ref t.config.request_timeout in
  match Protocol.decode_request payload with
  | exception Protocol.Protocol_error msg ->
    finish_request t conn ~started_ns ~timeout:!timeout ~payload
      (error_response Protocol.Protocol_violation msg)
  | Protocol.Subscribe { query } ->
    serve_subscription t conn ~started_ns ~payload query
  | req ->
  let response =
    match req with
    | Subscribe _ -> assert false (* handled above *)
    | View_materialize { name; query } -> (
      (* registration re-executes the query once; exempt it from the
         request budget like the other deliberately-slow verbs *)
      timeout := 0.;
      match Ivm.materialize t.views ~name ~query with
      | Ok seq -> Protocol.Result { columns = []; rows = []; seq }
      | Error e -> engine_error e)
    | View_unmaterialize { name } -> (
      match Ivm.unmaterialize t.views name with
      | Ok () -> Protocol.Result { columns = []; rows = []; seq = 0 }
      | Error e -> engine_error e)
    | View_list -> view_list_response t
    | View_read { name; min_seq; wait_ms } -> (
      (* the freshness wait is this verb's job, like Repl_fetch *)
      timeout := 0.;
      match Ivm.read ~min_seq ~wait_ms t.views name with
      | Ok (table, seq) -> table_response ~seq table
      | Error Ivm.Unknown_view ->
        engine_error (Runtime_error ("no view named " ^ name))
      | Error (Ivm.Stale at) ->
        Registry.incr m_stale_reads;
        error_response Protocol.Stale_replica
          (Printf.sprintf "view %s is at seq %d, read requires %d (waited %dms)"
             name at min_seq wait_ms)
      | Error (Ivm.Failed e) -> error_response Protocol.Server_error e)
    | Server_stats -> Protocol.Stats (Metrics.snapshot t.metrics)
    | Store_health -> Protocol.Stats (store_health t conn)
    | Metrics -> Protocol.Stats (registry_pairs ())
    | Query_stats -> query_stats_response ()
    | Cluster_health -> Protocol.Stats (cluster_health_response t)
    | Repl_snapshot { offset; chunk } ->
      (* Bootstrap: the first chunk pins the committed image on the
         connection, so a transfer overlapped by writes still ships one
         consistent version; the pin is dropped with the last chunk. *)
      let image =
        match conn.boot_pin with
        | Some img when offset > 0 -> img
        | _ ->
          let img = Store.encode_committed_snapshot t.store in
          conn.boot_pin <- Some img;
          img
      in
      let total = String.length image in
      if offset > total then
        error_response Protocol.Protocol_violation
          (Printf.sprintf "snapshot offset %d past image end %d" offset total)
      else begin
        let chunk =
          if chunk <= 0 then boot_chunk_limit else min chunk boot_chunk_limit
        in
        let len = min chunk (total - offset) in
        let data = String.sub image offset len in
        if offset + len >= total then conn.boot_pin <- None;
        Protocol.Repl_chunk { total; data }
      end
    | Repl_fetch { from_seq; max_records; wait_ms } ->
      (* Long-poll tail: answer as soon as there is anything at or past
         [from_seq], or after [wait_ms] with an empty batch.  Exempt
         from the request time budget — waiting is this verb's job. *)
      timeout := 0.;
      let max_records = max 1 (min max_records 65_536) in
      let deadline =
        Cypher_obs.Clock.now_ns () + (wait_ms * 1_000_000)
      in
      let rec poll () =
        (* half a frame leaves room for the batch's own framing *)
        let f =
          Store.fetch_since t.store ~from_seq ~max_records
            ~max_bytes:(Protocol.default_max_frame / 2)
        in
        if
          f.Store.fr_records <> [] || f.Store.fr_resync || Atomic.get t.stopping
          || Cypher_obs.Clock.now_ns () >= deadline
        then f
        else begin
          Thread.delay 0.002;
          poll ()
        end
      in
      let f = poll () in
      Protocol.Repl_batch
        {
          last_seq = f.Store.fr_last_seq;
          resync = f.Store.fr_resync;
          records = List.map snd f.Store.fr_records;
        }
    | Query { text; params; options } -> (
      (match List.assoc_opt "timeout_ms" options with
      | Some (Value.Int ms) -> timeout := float_of_int ms /. 1000.
      | _ -> ());
      (* "explain"/"profile" request options let remote clients ask for
         the plan without editing their query text; they compose with
         the engine's own prefix handling. *)
      let flag name =
        match List.assoc_opt name options with
        | Some (Value.Bool b) -> b
        | _ -> false
      in
      let text =
        if flag "explain" then "EXPLAIN " ^ text
        else if flag "profile" then "PROFILE " ^ text
        else text
      in
      (* "min_seq" (Int) demands the store have applied at least that
         commit before the read runs; "min_seq_wait_ms" bounds the wait
         (default 100ms) before a typed Stale_replica answer *)
      let min_seq =
        match List.assoc_opt "min_seq" options with
        | Some (Value.Int s) when s > 0 ->
          let wait_ms =
            match List.assoc_opt "min_seq_wait_ms" options with
            | Some (Value.Int w) when w >= 0 -> w
            | _ -> 100
          in
          Some (s, wait_ms)
        | _ -> None
      in
      (* "trace_id"/"span_id" (Int) carry the caller's distributed
         trace context: installed on this connection thread for the
         request, so engine and storage spans (and the commit lineage
         they start) nest under the remote parent span *)
      let run () = execute t conn ~min_seq text params in
      let traced () =
        match List.assoc_opt "trace_id" options with
        | Some (Value.Int tid) when tid <> 0 ->
          let parent =
            match List.assoc_opt "span_id" options with
            | Some (Value.Int sid) -> sid
            | _ -> 0
          in
          (* a connection thread never has an enclosing context, so
             install/clear directly instead of [with_context]'s
             save/restore *)
          Trace.set_context (Some { Trace.trace_id = tid; parent_span = parent });
          (match run () with
          | r ->
            Trace.set_context None;
            r
          | exception e ->
            Trace.set_context None;
            raise e)
        | _ -> run ()
      in
      match traced () with
      | response -> response
      | exception e ->
        error_response Protocol.Server_error
          ("internal error: " ^ Printexc.to_string e))
  in
  finish_request t conn ~started_ns ~timeout:!timeout ~payload response

(* Push mode: stream one Delta frame per view refresh until the client
   sends any frame back (that frame is then handled as a normal request,
   ending the subscription) or the peer/view goes away.  The opening
   frame is the view's full current state ([init]); every later frame
   carries one refresh's row deltas, in commit order. *)
and serve_subscription t conn ~started_ns ~payload query =
  match Ivm.subscribe t.views ~query with
  | Error e ->
    finish_request t conn ~started_ns ~timeout:0. ~payload
      (engine_error e)
  | Ok sub ->
    let next_request = ref None in
    let push f =
      Protocol.write_frame conn.fd
        (Protocol.encode_response (delta_response f))
    in
    let rec stream () =
      if not (Atomic.get t.stopping) then
        match Unix.select [ conn.fd ] [] [] 0. with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> stream ()
        | [ _ ], _, _ -> (
          (* the client spoke: end the stream, then serve that frame *)
          match Protocol.read_frame ~max_frame:t.config.max_frame conn.fd with
          | None -> ()
          | Some p -> next_request := Some p)
        | _ -> (
          match Ivm.next_frame t.views sub ~timeout_s:0.1 with
          | `Frame f ->
            push f;
            stream ()
          | `Timeout -> stream ()
          | `Closed ->
            (* the view was dropped or this subscriber fell too far
               behind: a typed end-of-stream, then back to request mode *)
            Protocol.write_frame conn.fd
              (Protocol.encode_response
                 (error_response Protocol.Server_error "subscription closed")))
    in
    Fun.protect
      ~finally:(fun () -> Ivm.unsubscribe t.views sub)
      (fun () -> stream ());
    let elapsed =
      float_of_int (Cypher_obs.Clock.now_ns () - started_ns) /. 1e9
    in
    Metrics.observe t.metrics ~elapsed
      ~bytes_in:(String.length payload + 4)
      ~bytes_out:0 ~outcome:`Ok;
    (match !next_request with
    | Some p -> handle_request t conn p
    | None -> ())

(* Waits until [fd] is readable, in slices so shutdown is noticed; the
   answer also turns true on EOF (read_frame then reports it). *)
let rec readable t fd =
  if Atomic.get t.stopping then false
  else
    match Unix.select [ fd ] [] [] 0.2 with
    | [], _, _ -> readable t fd
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> readable t fd

let next_conn_id = Atomic.make 1

let serve_connection t fd =
  Metrics.connection_opened t.metrics;
  (* the commit hook only captures the commit: the connection decides
     when to hand it to the group commit, because the writer lock must
     be released first *)
  let pending = ref None in
  let conn =
    {
      fd;
      conn_id = Atomic.fetch_and_add next_conn_id 1;
      session =
        Session.create ~schema:t.schema ~mode:t.mode
          ~on_commit:(fun c -> pending := Some c)
          (Store.snapshot t.store);
      pending;
      tx_depth = 0;
      boot_pin = None;
    }
  in
  (* label this connection thread: the engine's slow-query lines carry
     the connection they ran on *)
  Slowlog.set_conn (Some (Printf.sprintf "conn-%d" conn.conn_id));
  Fun.protect
    ~finally:(fun () ->
      Slowlog.set_conn None;
      (* a connection that dies mid-transaction must not keep the store
         locked; its uncommitted changes were never published or logged,
         so dropping them is exactly a rollback *)
      if conn.tx_depth > 0 then begin
        conn.tx_depth <- 0;
        conn.pending := None;
        Store.writer_unlock t.store
      end;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Metrics.connection_closed t.metrics)
    (fun () ->
      let rec loop () =
        if readable t fd then
          match Protocol.read_frame ~max_frame:t.config.max_frame fd with
          | None -> () (* client closed *)
          | Some payload ->
            handle_request t conn payload;
            loop ()
      in
      try loop () with
      | Protocol.Protocol_error msg ->
        (* oversized or malformed frame: report once, then close — the
           stream cannot be resynchronised *)
        (try
           Protocol.write_frame fd
             (Protocol.encode_response
                (error_response Protocol.Protocol_violation msg))
         with _ -> ());
        Metrics.observe t.metrics ~elapsed:0. ~bytes_in:0 ~bytes_out:0
          ~outcome:`Error
      | Unix.Unix_error _ -> ())

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      match Unix.accept t.listen_fd with
      | fd, _ ->
        let thread = Domain_pool.spawn_thread (fun () -> serve_connection t fd) in
        Mutex.lock t.state_lock;
        t.conn_threads <- thread :: t.conn_threads;
        Mutex.unlock t.state_lock;
        loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ ->
        (* listen socket closed by [stop] *)
        ()
    end
  in
  loop ()

(* A peer that disappears mid-write must surface as EPIPE on the write,
   not kill the process. *)
let ignore_sigpipe () =
  match Sys.os_type with
  | "Unix" -> (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())
  | _ -> ()

let start ?(config = default_config) ?(schema = Cypher_schema.Schema.empty)
    ?(mode = Engine.Planned) store =
  ignore_sigpipe ();
  (* a server always collects per-fingerprint statement statistics —
     that is what the 'T' verb and [:queries] report; benchmarks that
     want the untraced floor switch it back off *)
  Qstats.set_enabled true;
  match Unix.inet_addr_of_string config.host with
  | exception Failure _ -> Error ("invalid listen address: " ^ config.host)
  | addr -> (
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    match Unix.bind fd (Unix.ADDR_INET (addr, config.port)) with
    | exception Unix.Unix_error (err, _, _) ->
      Unix.close fd;
      Error
        (Printf.sprintf "cannot bind %s:%d: %s" config.host config.port
           (Unix.error_message err))
    | () ->
      Unix.listen fd config.backlog;
      let bound_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> config.port
      in
      let request_domains = Domain_pool.request_domains () in
      Registry.gauge_set m_request_domains request_domains;
      let t =
        {
          config;
          store;
          schema;
          mode;
          metrics = Metrics.create ();
          views = Ivm.attach ~mode store;
          listen_fd = fd;
          bound_port;
          stopping = Atomic.make false;
          request_domains;
          state_lock = Mutex.create ();
          conn_threads = [];
          accept_thread = None;
        }
      in
      t.accept_thread <- Some (Thread.create accept_loop t);
      Ok t)

(* Stops accepting and joins every connection thread; each notices
   [stopping] at its next frame boundary, so an in-flight request
   finishes first.  The threads live on pool domains, and joining them
   here is what lets {!Domain_pool.shutdown} join those domains later. *)
let halt t =
  Atomic.set t.stopping true;
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Option.iter Thread.join t.accept_thread;
  t.accept_thread <- None;
  let threads =
    Mutex.lock t.state_lock;
    let th = t.conn_threads in
    t.conn_threads <- [];
    Mutex.unlock t.state_lock;
    th
  in
  List.iter Thread.join threads;
  Ivm.shutdown t.views

(* Graceful shutdown: drain the connections, then checkpoint and close
   the WAL. *)
let stop t =
  halt t;
  let checkpoint_result = Store.checkpoint t.store in
  Store.close t.store;
  checkpoint_result

(* Crash-equivalent shutdown: stop accepting and close the store WITHOUT
   checkpointing — the WAL is left exactly as the last fsync wrote it,
   so reopening the directory exercises the real recovery path.  Used by
   the replication failure tests to kill a primary mid-stream. *)
let kill t =
  halt t;
  Store.close t.store

let wait t = Option.iter Thread.join t.accept_thread

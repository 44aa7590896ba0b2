(* The concurrent query server: protocol round trips, the framed wire
   format's size guard, full value-domain transport, typed errors,
   transactions over the wire, a 16-client concurrency run checked
   against a single-threaded oracle, crash recovery from a
   server-produced WAL with a torn tail, timeouts, metrics, graceful
   shutdown, and the domain pool that hosts connection threads. *)

open Helpers
open Cypher_values
module Graph = Cypher_graph.Graph
module Session = Cypher_session.Session
module Store = Cypher_storage.Store
module Wal = Cypher_storage.Wal
module Protocol = Cypher_server.Protocol
module Server = Cypher_server.Server
module Client = Cypher_server.Client
module Metrics = Cypher_server.Metrics
module Registry = Cypher_obs.Registry
module Domain_pool = Cypher_engine.Domain_pool

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "cypher_server_test_%d_%d.db" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists d then
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
    else Sys.mkdir d 0o755;
    d

let open_store dir =
  match Store.open_ dir with
  | Ok s -> s
  | Error e -> Alcotest.failf "cannot open store %s: %s" dir e

(* Starts a server over a fresh store on an ephemeral port and hands the
   callback a connector; always stops the server (checkpoint + close). *)
let with_server ?config f =
  let dir = fresh_dir () in
  let store = open_store dir in
  let config =
    match config with
    | Some c -> { c with Server.port = 0 }
    | None -> { Server.default_config with Server.port = 0 }
  in
  match Server.start ~config store with
  | Error e -> Alcotest.failf "cannot start server: %s" e
  | Ok server ->
    let connect () =
      match
        Client.connect ~timeout:30. ~host:"127.0.0.1"
          ~port:(Server.port server) ()
      with
      | Ok c -> c
      | Error e -> Alcotest.failf "cannot connect: %s" e
    in
    let stopped = ref false in
    let stop () =
      if not !stopped then begin
        stopped := true;
        match Server.stop server with
        | Ok () -> ()
        | Error e -> Alcotest.failf "server stop: %s" e
      end
    in
    Fun.protect
      ~finally:(fun () -> if not !stopped then ignore (Server.stop server))
      (fun () -> f ~dir ~server ~connect ~stop)

let ok_query ?params client q =
  match Client.query ?params client q with
  | Ok r -> r
  | Error e -> Alcotest.failf "query %S failed: %s" q (Client.error_message e)

let count_of { Client.columns; rows; _ } =
  match (columns, rows) with
  | [ _ ], [ [ Value.Int n ] ] -> n
  | _ -> Alcotest.fail "expected a single integer cell"

(* --- protocol --------------------------------------------------------- *)

let protocol_roundtrip () =
  let requests =
    [
      Protocol.Query
        {
          text = "MATCH (n) WHERE n.k = $k RETURN n";
          params =
            [
              ("k", Value.List [ Value.Int 1; Value.Null; Value.Float nan ]);
              ("nul\x00key", Value.String "nul\x00value");
            ];
          options = [ ("timeout_ms", Value.Int 250) ];
        };
      Protocol.Server_stats;
      Protocol.Store_health;
    ]
  in
  List.iter
    (fun req ->
      let decoded = Protocol.decode_request (Protocol.encode_request req) in
      (* NaN breaks structural equality; compare via the value codec's
         total order where needed *)
      match (req, decoded) with
      | Protocol.Query q1, Protocol.Query q2 ->
        Alcotest.(check string) "text" q1.text q2.text;
        Alcotest.(check int) "params" (List.length q1.params)
          (List.length q2.params);
        List.iter2
          (fun (k1, v1) (k2, v2) ->
            Alcotest.(check string) "param name" k1 k2;
            Alcotest.(check int) "param value" 0 (Value.compare_total v1 v2))
          q1.params q2.params
      | Protocol.Server_stats, Protocol.Server_stats -> ()
      | Protocol.Store_health, Protocol.Store_health -> ()
      | _ -> Alcotest.fail "request did not round-trip")
    requests;
  let responses =
    [
      Protocol.Result
        {
          columns = [ "a"; "b" ];
          rows = [ [ Value.Int 1; Value.String "x" ]; [ Value.Null; Value.Bool true ] ];
          seq = 42;
        };
      Protocol.Error { kind = Protocol.Timeout; message = "too slow" };
      Protocol.Stats [ ("requests", Value.Int 7) ];
      Protocol.Repl_chunk { total = 1024; data = "snapshot-bytes" };
      Protocol.Repl_batch
        { last_seq = 17; resync = true; records = [ "frame1"; "frame2" ] };
    ]
  in
  List.iter
    (fun resp ->
      match (resp, Protocol.decode_response (Protocol.encode_response resp)) with
      | Protocol.Result r1, Protocol.Result r2 ->
        Alcotest.(check (list string)) "columns" r1.columns r2.columns;
        Alcotest.(check int) "seq" r1.seq r2.seq;
        List.iter2
          (List.iter2 (fun v1 v2 ->
               Alcotest.(check int) "cell" 0 (Value.compare_total v1 v2)))
          r1.rows r2.rows
      | Protocol.Error e1, Protocol.Error e2 ->
        Alcotest.(check string) "message" e1.message e2.message;
        Alcotest.(check bool) "kind" true (e1.kind = e2.kind)
      | Protocol.Stats s1, Protocol.Stats s2 ->
        Alcotest.(check int) "stats" (List.length s1) (List.length s2)
      | Protocol.Repl_chunk c1, Protocol.Repl_chunk c2 ->
        Alcotest.(check int) "chunk total" c1.total c2.total;
        Alcotest.(check string) "chunk data" c1.data c2.data
      | Protocol.Repl_batch b1, Protocol.Repl_batch b2 ->
        Alcotest.(check int) "batch last_seq" b1.last_seq b2.last_seq;
        Alcotest.(check bool) "batch resync" b1.resync b2.resync;
        Alcotest.(check (list string)) "batch records" b1.records b2.records
      | _ -> Alcotest.fail "response did not round-trip")
    responses;
  (* malformed payloads are protocol errors, not crashes *)
  List.iter
    (fun payload ->
      match Protocol.decode_request payload with
      | exception Protocol.Protocol_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed payload %S" payload)
    [ ""; "Z"; "Q\xff\xff\xff\xff" ]

let value_domain_over_the_wire () =
  with_server (fun ~dir:_ ~server:_ ~connect ~stop:_ ->
      let client = connect () in
      Fun.protect ~finally:(fun () -> Client.close client)
        (fun () ->
          let tricky =
            Value.
              [
                Int min_int;
                Float nan;
                Float neg_infinity;
                Float (-0.);
                String "nul\x00led";
                List [ Int 1; List [ Null; Bool false ]; Map Smap.empty ];
                Map (Smap.add "k" (List [ Float infinity ]) Smap.empty);
                Temporal (Date 738000);
                Temporal (Datetime (738000, 43_200_000_000_000L, -3600));
                Temporal (Duration { months = -1; days = 400; nanos = 5L });
              ]
          in
          List.iter
            (fun v ->
              let r = ok_query ~params:[ ("x", v) ] client "RETURN $x AS x" in
              match r.Client.rows with
              | [ [ got ] ] ->
                if Value.compare_total v got <> 0 then
                  Alcotest.failf "value did not survive the wire: %s"
                    (Value.to_string v)
              | _ -> Alcotest.fail "expected exactly one cell")
            tricky))

(* Every engine error kind, on every server path that can produce one:
   the auto-commit read and write paths, inside a transaction, COMMIT
   outside one, and view registration and subscription.  Each arrives
   with its own kind — never as a server error — and the client renders
   it exactly as the same statement's error renders in process. *)
let typed_errors () =
  let module Engine = Cypher_engine.Engine in
  let module Ivm = Cypher_ivm.Ivm in
  let in_process q =
    match Engine.query Graph.empty q with
    | Error e -> e
    | Ok _ -> Alcotest.failf "%S unexpectedly succeeded in process" q
  in
  let local_views f =
    let mgr = Ivm.create Graph.empty 0 in
    Fun.protect ~finally:(fun () -> Ivm.shutdown mgr) (fun () ->
        match f mgr with
        | Error e -> e
        | Ok _ -> Alcotest.fail "view call unexpectedly succeeded in process")
  in
  let bad_view = "MATCH (n RETURN n" in
  let unsupported =
    "PROFILE MATCH (a:N), (b:N) MATCH p = shortestPath((a)-[:R*]-(b)), \
     q = shortestPath((b)-[:R*]-(a)) RETURN count(*) AS c"
  in
  with_server (fun ~dir:_ ~server:_ ~connect ~stop:_ ->
      let client = connect () in
      Fun.protect ~finally:(fun () -> Client.close client)
        (fun () ->
          let query q = Result.map ignore (Client.query client q) in
          let in_tx q () =
            ignore (ok_query client "BEGIN");
            let r = query q in
            ignore (ok_query client "ROLLBACK");
            r
          in
          let cases =
            [
              ("parse error", Protocol.Parse_error, (fun () -> query "MATCH ("),
                fun () -> in_process "MATCH (");
              ( "scope error", Protocol.Syntax_error,
                (fun () -> query "MATCH (n) RETURN m"),
                fun () -> in_process "MATCH (n) RETURN m" );
              ( "type error", Protocol.Type_error,
                (fun () -> query "RETURN 1 - 'a'"),
                fun () -> in_process "RETURN 1 - 'a'" );
              ( "unsupported PROFILE", Protocol.Unsupported,
                (fun () -> query unsupported),
                fun () -> in_process unsupported );
              ( "write path", Protocol.Runtime_error,
                (fun () -> query "CREATE (:X {v: 1 / 0})"),
                fun () -> in_process "CREATE (:X {v: 1 / 0})" );
              ( "inside a transaction", Protocol.Parse_error, in_tx "MATCH (",
                fun () -> in_process "MATCH (" );
              ( "COMMIT outside a transaction", Protocol.Runtime_error,
                (fun () -> query "COMMIT"),
                fun () ->
                  match Session.commit (Session.create Graph.empty) with
                  | Error e -> e
                  | Ok () -> Alcotest.fail "commit without a transaction" );
              ( "materialize", Protocol.Parse_error,
                (fun () ->
                  Result.map ignore
                    (Client.materialize client ~name:"v" ~query:bad_view)),
                fun () ->
                  local_views (fun mgr ->
                      Result.map ignore
                        (Ivm.materialize mgr ~name:"v" ~query:bad_view)) );
              ( "subscribe", Protocol.Parse_error,
                (fun () ->
                  Result.bind (Client.subscribe client ~query:bad_view)
                    (fun sub -> Result.map ignore (Client.next_delta sub))),
                fun () ->
                  local_views (fun mgr ->
                      Result.map ignore (Ivm.subscribe mgr ~query:bad_view)) );
            ]
          in
          List.iter
            (fun (name, kind, remote, local) ->
              match remote () with
              | Ok () -> Alcotest.failf "%s: unexpectedly succeeded" name
              | Error e ->
                if e.Client.kind <> kind then
                  Alcotest.failf "%s: expected %s, got %s" name
                    (Protocol.error_kind_name kind)
                    (Client.error_message e);
                Alcotest.(check string)
                  (name ^ ": rendered as in process")
                  (Engine.error_message (local ()))
                  (Client.error_message e))
            cases))

let frame_size_guard () =
  let config = { Server.default_config with Server.max_frame = 4096 } in
  with_server ~config (fun ~dir:_ ~server:_ ~connect ~stop:_ ->
      let client = connect () in
      Fun.protect ~finally:(fun () -> Client.close client)
        (fun () ->
          let huge = "RETURN '" ^ String.make 8192 'x' ^ "' AS s" in
          match Client.query client huge with
          | Ok _ -> Alcotest.fail "oversized frame accepted"
          | Error e ->
            Alcotest.(check bool) "protocol violation" true
              (e.Client.kind = Protocol.Protocol_violation);
          (* the stream is unrecoverable: the server must have closed it *)
          match Client.query client "RETURN 1 AS one" with
          | Ok _ -> Alcotest.fail "server kept a poisoned connection open"
          | Error _ -> ()))

(* --- transactions over the wire --------------------------------------- *)

let transactions_over_the_wire () =
  with_server (fun ~dir ~server:_ ~connect ~stop ->
      let client = connect () in
      (* rolled back: nothing visible, nothing logged *)
      ignore (ok_query client "BEGIN");
      ignore (ok_query client "CREATE (:T {v: 1})");
      Alcotest.(check int) "visible inside the tx" 1
        (count_of (ok_query client "MATCH (t:T) RETURN count(t) AS c"));
      ignore (ok_query client "ROLLBACK");
      Alcotest.(check int) "rolled back" 0
        (count_of (ok_query client "MATCH (t:T) RETURN count(t) AS c"));
      (* committed: visible to a second connection, logged once *)
      ignore (ok_query client "BEGIN");
      ignore (ok_query client "CREATE (:T {v: 2})");
      ignore (ok_query client "CREATE (:T {v: 3})");
      ignore (ok_query client "COMMIT");
      let other = connect () in
      Alcotest.(check int) "committed, seen by another connection" 2
        (count_of (ok_query other "MATCH (t:T) RETURN count(t) AS c"));
      Client.close other;
      Client.close client;
      stop ();
      (* durable across restart through the normal recovery path *)
      let again = open_store dir in
      (match Store.run again "MATCH (t:T) RETURN count(t) AS c" with
      | Ok table ->
        (match Cypher_table.Table.rows table with
        | [ row ] ->
          Alcotest.(check bool) "recovered count" true
            (Cypher_table.Record.find row "c" = Some (Value.Int 2))
        | _ -> Alcotest.fail "expected one row")
      | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e));
      Store.close again)

let abrupt_disconnect_mid_transaction () =
  with_server (fun ~dir:_ ~server:_ ~connect ~stop:_ ->
      let dying = connect () in
      ignore (ok_query dying "BEGIN");
      ignore (ok_query dying "CREATE (:Dead {v: 1})");
      (* vanish without COMMIT: the server must release the writer lock
         and discard the uncommitted changes *)
      Client.close dying;
      let client = connect () in
      Fun.protect ~finally:(fun () -> Client.close client)
        (fun () ->
          (* under MVCC a read never takes a lock, so only a write can
             regression-test the lock release: this CREATE blocks
             forever if the writer lock leaked *)
          ignore (ok_query client "CREATE (:Alive {v: 1})");
          Alcotest.(check int) "uncommitted changes discarded" 0
            (count_of
               (ok_query client "MATCH (d:Dead) RETURN count(d) AS c"));
          Alcotest.(check int) "writer lock released for later writes" 1
            (count_of
               (ok_query client "MATCH (a:Alive) RETURN count(a) AS c"))))

(* --- concurrency against a single-threaded oracle ---------------------- *)

let n_clients = 16
let creates_per_client = 8

let concurrent_clients_match_oracle () =
  with_server (fun ~dir ~server:_ ~connect ~stop ->
      let failures = Queue.create () in
      let failures_lock = Mutex.create () in
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            Mutex.lock failures_lock;
            Queue.add msg failures;
            Mutex.unlock failures_lock)
          fmt
      in
      let client_thread i =
        let client = connect () in
        Fun.protect ~finally:(fun () -> Client.close client)
          (fun () ->
            for j = 1 to creates_per_client do
              (match
                 Client.query client
                   ~params:[ ("c", Value.Int i); ("j", Value.Int j) ]
                   "CREATE (:C {c: $c, j: $j})"
               with
              | Ok _ -> ()
              | Error e ->
                fail "client %d create %d: %s" i j (Client.error_message e));
              (* read-your-writes: only this thread creates c = i, so the
                 count is deterministic even under full concurrency *)
              match
                Client.query client ~params:[ ("c", Value.Int i) ]
                  "MATCH (n:C {c: $c}) RETURN count(n) AS k"
              with
              | Ok r ->
                let k =
                  match r.Client.rows with
                  | [ [ Value.Int k ] ] -> k
                  | _ -> -1
                in
                if k <> j then
                  fail "client %d saw %d of its %d commits" i k j
              | Error e ->
                fail "client %d read %d: %s" i j (Client.error_message e)
            done)
      in
      let threads = List.init n_clients (Thread.create client_thread) in
      List.iter Thread.join threads;
      (match Queue.fold (fun acc m -> m :: acc) [] failures with
      | [] -> ()
      | msgs -> Alcotest.fail (String.concat "\n" msgs));
      (* aggregate state vs. a single-threaded oracle running the same
         statements (order across clients is irrelevant: each client
         touches a disjoint key) *)
      let oracle = Session.create Graph.empty in
      for i = 0 to n_clients - 1 do
        for j = 1 to creates_per_client do
          Session.set_params oracle [ ("c", Value.Int i); ("j", Value.Int j) ];
          match Session.run oracle "CREATE (:C {c: $c, j: $j})" with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e)
        done
      done;
      let summary_q =
        "MATCH (n:C) RETURN n.c AS c, count(n) AS k ORDER BY c"
      in
      let oracle_table =
        match Session.run oracle summary_q with
        | Ok t -> t
        | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e)
      in
      let client = connect () in
      let served = ok_query client summary_q in
      Client.close client;
      let oracle_rows =
        List.map
          (fun row ->
            List.map
              (Cypher_table.Record.find_or_null row)
              (Cypher_table.Table.fields oracle_table))
          (Cypher_table.Table.rows oracle_table)
      in
      Alcotest.(check int) "row count vs oracle" (List.length oracle_rows)
        (List.length served.Client.rows);
      List.iter2
        (List.iter2 (fun v1 v2 ->
             Alcotest.(check int) "cell vs oracle" 0
               (Value.compare_total v1 v2)))
        oracle_rows served.Client.rows;
      stop ();
      (* and the WAL + checkpoint survive a restart *)
      let again = open_store dir in
      (match Store.run again "MATCH (n:C) RETURN count(n) AS c" with
      | Ok table ->
        (match Cypher_table.Table.rows table with
        | [ row ] ->
          Alcotest.(check bool) "recovered total" true
            (Cypher_table.Record.find row "c"
            = Some (Value.Int (n_clients * creates_per_client)))
        | _ -> Alcotest.fail "expected one row")
      | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e));
      Store.close again)

(* --- crash recovery from a server-produced WAL ------------------------- *)

let kill_mid_commit_recovers () =
  let committed = 5 in
  let dir = fresh_dir () in
  let wal_copy_dir = fresh_dir () in
  let store = open_store dir in
  let config = { Server.default_config with Server.port = 0 } in
  (match Server.start ~config store with
  | Error e -> Alcotest.failf "cannot start server: %s" e
  | Ok server ->
    let client =
      match
        Client.connect ~timeout:30. ~host:"127.0.0.1"
          ~port:(Server.port server) ()
      with
      | Ok c -> c
      | Error e -> Alcotest.failf "cannot connect: %s" e
    in
    for i = 1 to committed do
      ignore
        (ok_query client ~params:[ ("i", Value.Int i) ]
           "CREATE (:K {i: $i})")
    done;
    (* every commit above was acknowledged, so its WAL record is already
       fsync'd: capture the live WAL bytes as a kill would leave them,
       with a torn half-record appended — a commit cut down mid-write *)
    let wal_bytes =
      In_channel.with_open_bin (Store.wal_file dir) In_channel.input_all
    in
    let torn =
      (* length prefix promising 200 payload bytes, then silence *)
      "\xc8\x00\x00\x00\xde\xad\xbe\xef" ^ String.make 40 'x'
    in
    Out_channel.with_open_bin
      (Store.wal_file wal_copy_dir)
      (fun oc -> Out_channel.output_string oc (wal_bytes ^ torn));
    Client.close client;
    ignore (Server.stop server));
  (* the existing recovery path must drop the torn tail and replay all
     acknowledged commits *)
  let recovered = open_store wal_copy_dir in
  (match Store.run recovered "MATCH (k:K) RETURN count(k) AS c" with
  | Ok table ->
    (match Cypher_table.Table.rows table with
    | [ row ] ->
      Alcotest.(check bool) "all acknowledged commits recovered" true
        (Cypher_table.Record.find row "c" = Some (Value.Int committed))
    | _ -> Alcotest.fail "expected one row")
  | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e));
  Store.close recovered

(* --- timeouts, metrics, stats verbs ------------------------------------ *)

let request_timeout () =
  with_server (fun ~dir:_ ~server:_ ~connect ~stop:_ ->
      let client = connect () in
      Fun.protect ~finally:(fun () -> Client.close client)
        (fun () ->
          ignore
            (ok_query client "UNWIND range(1, 400) AS i CREATE (:N {i: i})");
          match
            Client.query client
              ~options:[ ("timeout_ms", Value.Int 1) ]
              "MATCH (a:N), (b:N) RETURN count(*) AS c"
          with
          | Ok _ -> Alcotest.fail "a 160k-pair product finished within 1ms?"
          | Error e ->
            Alcotest.(check bool) "timeout kind" true
              (e.Client.kind = Protocol.Timeout)))

(* Each request executed on the server is one plan-cache lookup: a new
   text is one miss, its repeat one hit, on the MVCC read path and on
   the auto-commit write path alike. *)
let plan_cache_accounting_over_the_wire () =
  let hits = Registry.counter "cypher_plan_cache_hits_total"
  and misses = Registry.counter "cypher_plan_cache_misses_total" in
  with_server (fun ~dir:_ ~server:_ ~connect ~stop:_ ->
      let c = connect () in
      let send path text =
        let h0 = Registry.value hits and m0 = Registry.value misses in
        ignore (ok_query c text);
        Alcotest.(check int) (path ^ ": a new text misses once") (m0 + 1)
          (Registry.value misses);
        Alcotest.(check int) (path ^ ": a new text hits nothing") h0
          (Registry.value hits);
        let h1 = Registry.value hits and m1 = Registry.value misses in
        ignore (ok_query c text);
        Alcotest.(check int) (path ^ ": its repeat hits once") (h1 + 1)
          (Registry.value hits);
        Alcotest.(check int) (path ^ ": its repeat misses nothing") m1
          (Registry.value misses)
      in
      send "MVCC read" "RETURN 7 AS plan_cache_probe";
      send "auto-commit write" "CREATE (:PlanCacheProbe {v: 1})";
      Client.close c)

let stats_verbs_and_metrics () =
  with_server (fun ~dir:_ ~server ~connect ~stop:_ ->
      let client = connect () in
      Fun.protect ~finally:(fun () -> Client.close client)
        (fun () ->
          ignore (ok_query client "CREATE (:M {v: 1})");
          ignore (ok_query client "MATCH (m:M) RETURN m.v AS v");
          (match Client.query client "MATCH (" with
          | Ok _ -> Alcotest.fail "parse error accepted"
          | Error _ -> ());
          let health =
            match Client.store_health client with
            | Ok pairs -> pairs
            | Error e -> Alcotest.failf "store health: %s" (Client.error_message e)
          in
          Alcotest.(check bool) "one WAL record" true
            (List.assoc_opt "wal_records" health = Some (Value.Int 1));
          Alcotest.(check bool) "last_seq advanced" true
            (List.assoc_opt "last_seq" health = Some (Value.Int 1));
          let stats =
            match Client.server_stats client with
            | Ok pairs -> pairs
            | Error e -> Alcotest.failf "server stats: %s" (Client.error_message e)
          in
          let geti k =
            match List.assoc_opt k stats with
            | Some (Value.Int n) -> n
            | _ -> Alcotest.failf "missing metric %s" k
          in
          Alcotest.(check bool) "requests counted" true (geti "requests" >= 3);
          Alcotest.(check bool) "error counted" true (geti "errors" >= 1);
          Alcotest.(check int) "one active connection" 1
            (geti "connections_active");
          Alcotest.(check bool) "bytes move" true
            (geti "bytes_in" > 0 && geti "bytes_out" > 0);
          Alcotest.(check bool) "p50 <= p95" true
            (geti "latency_p50_us" <= geti "latency_p95_us");
          ignore (Metrics.snapshot (Server.metrics server))))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let metrics_verb_and_remote_profile () =
  with_server (fun ~dir:_ ~server:_ ~connect ~stop:_ ->
      let client = connect () in
      Fun.protect ~finally:(fun () -> Client.close client)
        (fun () ->
          ignore (ok_query client "CREATE (:R {v: 1})");
          ignore (ok_query client "MATCH (n:R) RETURN n.v AS v");
          let pairs =
            match Client.metrics client with
            | Ok pairs -> pairs
            | Error e -> Alcotest.failf "metrics: %s" (Client.error_message e)
          in
          let geti k =
            match List.assoc_opt k pairs with
            | Some (Value.Int n) -> n
            | _ -> Alcotest.failf "missing series %s" k
          in
          (* one registry: engine, storage and server series all present *)
          Alcotest.(check bool) "engine series over the wire" true
            (geti "cypher_engine_queries_planned_total" > 0);
          Alcotest.(check bool) "storage series over the wire" true
            (geti "cypher_storage_wal_records_total" > 0);
          Alcotest.(check bool) "server series over the wire" true
            (geti "cypher_server_requests_total" > 0);
          (* PROFILE travels over the wire: as a query prefix… *)
          (match Client.query client "PROFILE MATCH (n:R) RETURN n" with
          | Ok { Client.columns; rows; _ } ->
            Alcotest.(check (list string)) "plan column" [ "plan" ] columns;
            Alcotest.(check bool) "per-operator db-hits and rows shown" true
              (List.exists
                 (function
                   | [ Value.String line ] ->
                     contains line "db-hits" && contains line "actual"
                   | _ -> false)
                 rows)
          | Error e ->
            Alcotest.failf "remote PROFILE: %s" (Client.error_message e));
          (* …and as a request option, leaving the text untouched *)
          match
            Client.query
              ~options:[ ("profile", Value.Bool true) ]
              client "MATCH (n:R) RETURN n"
          with
          | Ok { Client.columns; rows; _ } ->
            Alcotest.(check (list string)) "option plan column" [ "plan" ]
              columns;
            Alcotest.(check bool) "option yields a plan" true (rows <> [])
          | Error e ->
            Alcotest.failf "profile option: %s" (Client.error_message e)))

let graceful_stop_checkpoints () =
  let dir = fresh_dir () in
  let store = open_store dir in
  (match Server.start ~config:{ Server.default_config with Server.port = 0 } store with
  | Error e -> Alcotest.failf "cannot start server: %s" e
  | Ok server ->
    let client =
      match
        Client.connect ~host:"127.0.0.1" ~port:(Server.port server) ()
      with
      | Ok c -> c
      | Error e -> Alcotest.failf "cannot connect: %s" e
    in
    ignore (ok_query client "CREATE (:G {v: 1})");
    Client.close client;
    (match Server.stop server with
    | Ok () -> ()
    | Error e -> Alcotest.failf "graceful stop: %s" e);
    (* stop checkpoints: snapshot written, WAL truncated back to header *)
    Alcotest.(check bool) "snapshot exists" true
      (Sys.file_exists (Store.snapshot_file dir));
    match Wal.scan (Store.wal_file dir) with
    | Ok scan ->
      Alcotest.(check int) "WAL empty after checkpoint" 0
        (List.length scan.Wal.records)
    | Error e -> Alcotest.fail e);
  let again = open_store dir in
  (match Store.run again "MATCH (g:G) RETURN count(g) AS c" with
  | Ok table ->
    (match Cypher_table.Table.rows table with
    | [ row ] ->
      Alcotest.(check bool) "state survives graceful stop" true
        (Cypher_table.Record.find row "c" = Some (Value.Int 1))
    | _ -> Alcotest.fail "expected one row")
  | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e));
  Store.close again

(* Request domains: a long read on one connection must not stall the
   others.  A's cartesian count (36M rows) runs for a second or so on
   one domain; B's connection, placed on another, answers 20 point reads
   meanwhile.
   With every connection on one domain, B would wait for the runtime
   lock A's read holds at every request. *)
let long_read_does_not_stall_others () =
  if Domain.recommended_domain_count () < 2 then begin
    print_endline "skipped: one recommended domain, so every connection \
                   shares the server's";
    Alcotest.skip ()
  end;
  with_server (fun ~dir:_ ~server:_ ~connect ~stop:_ ->
      let a = connect () in
      let b = connect () in
      ignore (ok_query a "UNWIND range(1, 6000) AS i CREATE (:N {v: i})");
      let a_done = ref 0. and a_elapsed = ref 0. and a_count = ref 0 in
      let long_read =
        Thread.create
          (fun () ->
            let t0 = Unix.gettimeofday () in
            a_count := count_of (ok_query a "MATCH (x:N), (y:N) RETURN count(*) AS c");
            a_done := Unix.gettimeofday ();
            a_elapsed := !a_done -. t0)
          ()
      in
      (* let A's request reach its connection thread first *)
      Thread.delay 0.05;
      let b_start = Unix.gettimeofday () in
      for i = 1 to 20 do
        let r =
          ok_query b (Printf.sprintf "MATCH (n:N {v: %d}) RETURN count(n) AS c" i)
        in
        Alcotest.(check int) "point read answers" 1 (count_of r)
      done;
      let b_done = Unix.gettimeofday () in
      Thread.join long_read;
      Alcotest.(check int) "the long read answers" (6000 * 6000) !a_count;
      Alcotest.(check bool)
        (Printf.sprintf "B's 20 reads finish %.0f ms before A's answer"
           ((!a_done -. b_done) *. 1e3))
        true (b_done < !a_done);
      (* on one shared domain B still gets a slice at each 50 ms tick, so
         its reads crawl through A's whole run instead of finishing
         at once *)
      Alcotest.(check bool)
        (Printf.sprintf "B's 20 reads take %.0f ms, under a quarter of A's"
           ((b_done -. b_start) *. 1e3))
        true (b_done -. b_start < !a_elapsed /. 4.);
      Client.close a;
      Client.close b)

(* Shutdown with a connection idle on a helper domain: Server.stop joins
   the connection thread, after which the pool can join every domain. *)
let stop_with_idle_connection () =
  let dir = fresh_dir () in
  let store = open_store dir in
  match Server.start ~config:{ Server.default_config with Server.port = 0 } store with
  | Error e -> Alcotest.failf "cannot start server: %s" e
  | Ok server ->
    let client =
      match Client.connect ~host:"127.0.0.1" ~port:(Server.port server) () with
      | Ok c -> c
      | Error e -> Alcotest.failf "cannot connect: %s" e
    in
    ignore (ok_query client "RETURN 1 AS one");
    (* the connection now sits idle; stop and shutdown must both return *)
    (match Server.stop server with
    | Ok () -> ()
    | Error e -> Alcotest.failf "stop: %s" e);
    let domains = Cypher_engine.Domain_pool.size () in
    Alcotest.(check int) "every pool domain joined" domains
      (Cypher_engine.Domain_pool.shutdown ());
    Client.close client

(* A thread spawned on the pool that reports its domain and then parks
   until released. *)
let parked_thread () =
  let where = ref None and release = ref false in
  let m = Mutex.create () and c = Condition.create () in
  let th =
    Domain_pool.spawn_thread (fun () ->
        Mutex.lock m;
        where := Some (Domain.self ());
        Condition.broadcast c;
        while not !release do Condition.wait c m done;
        Mutex.unlock m)
  in
  Mutex.lock m;
  while !where = None do Condition.wait c m done;
  let d = Option.get !where in
  Mutex.unlock m;
  let finish () =
    Mutex.lock m;
    release := true;
    Condition.broadcast c;
    Mutex.unlock m;
    Thread.join th
  in
  (d, finish)

(* Runs after the test above has emptied the pool and every connection
   thread has ended, so placement starts from no live threads. *)
let pool_placement () =
  if Domain.recommended_domain_count () < 2 then begin
    print_endline "skipped: one recommended domain, so every thread runs on \
                   the caller's";
    Alcotest.skip ()
  end;
  let d1, finish1 = parked_thread () in
  let d2, finish2 = parked_thread () in
  Alcotest.(check bool) "two consecutive spawns land on different domains"
    true (d1 <> d2);
  finish1 ();
  let d3, finish3 = parked_thread () in
  Alcotest.(check bool) "once the first ends, the next spawn reuses its domain"
    true (d3 = d1);
  finish2 ();
  finish3 ()

let pool_shutdown_leaves_busy_domains () =
  (* a thread parked on a pool domain keeps that domain alive: shutdown
     must return without joining it, or an idle connection would hang
     process exit *)
  let parked_on, finish = parked_thread () in
  let hosting = if parked_on = Domain.self () then 0 else 1 in
  let domains = Domain_pool.size () in
  let returned = Atomic.make false and joined = ref 0 in
  let shutter =
    Thread.create
      (fun () ->
        joined := Domain_pool.shutdown ();
        Atomic.set returned true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Atomic.get returned)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let ok = Atomic.get returned in
  finish ();
  Thread.join shutter;
  Alcotest.(check bool) "shutdown returns while a hosted thread lives" true ok;
  Alcotest.(check int) "every domain but the hosting one joined"
    (domains - hosting) !joined;
  (* the pool re-grows on demand *)
  let ran = Atomic.make false in
  Thread.join (Domain_pool.spawn_thread (fun () -> Atomic.set ran true));
  Alcotest.(check bool) "a thread spawned after shutdown still runs" true
    (Atomic.get ran);
  Alcotest.(check int) "the pool re-grew to one domain per core"
    (min 8 (Domain.recommended_domain_count () - 1))
    (Domain_pool.size ())

let pool_runs_every_thread_once () =
  let n = 64 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let threads =
    List.init n (fun i -> Domain_pool.spawn_thread (fun () -> Atomic.incr hits.(i)))
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "thread %d ran exactly once" i) 1
        (Atomic.get c))
    hits;
  Alcotest.(check bool) "pool stays within one domain per core" true
    (Domain_pool.size () <= min 8 (Domain.recommended_domain_count () - 1))

let pool_concurrent_spawners () =
  (* spawners racing on the pool lock and on the shared hand-back
     condition must each get their own thread back *)
  let total = Atomic.make 0 in
  let spawners =
    List.init 6 (fun _ ->
        Thread.create
          (fun () ->
            List.init 5 (fun _ ->
                Domain_pool.spawn_thread (fun () -> Atomic.incr total))
            |> List.iter Thread.join)
          ())
  in
  List.iter Thread.join spawners;
  Alcotest.(check int) "every spawned thread ran" (6 * 5) (Atomic.get total)

(* A client built when the server still read a "parallel" option sends
   it with every query ([cypher_cli --parallel 4 --connect]).  The server
   ignores options it does not read, so the answer is the one the same
   query gets without options. *)
let unread_option_is_ignored () =
  with_server (fun ~dir:_ ~server:_ ~connect ~stop:_ ->
      let c = connect () in
      ignore (ok_query c "UNWIND range(1, 5) AS i CREATE (:N {v: i})");
      let q = "MATCH (n:N) RETURN n.v AS v ORDER BY v" in
      let plain = ok_query c q in
      let optioned =
        match Client.query ~options:[ ("parallel", Value.Int 4) ] c q with
        | Ok r -> r
        | Error e -> Alcotest.failf "%S with an unread option: %s" q
                       (Client.error_message e)
      in
      Alcotest.(check (list string)) "same columns" plain.Client.columns
        optioned.Client.columns;
      Alcotest.(check (list (list value_testable))) "same rows"
        plain.Client.rows optioned.Client.rows;
      Alcotest.(check int) "every row answered" 5 (List.length plain.Client.rows);
      Client.close c)

let suite =
  [
    tc "protocol round-trips requests, responses and malformed input"
      protocol_roundtrip;
    tc "full value domain round-trips over the wire" value_domain_over_the_wire;
    tc "errors arrive with their typed kind" typed_errors;
    tc "oversized frames are rejected and the connection closed"
      frame_size_guard;
    tc "transactions over the wire: rollback, commit, restart"
      transactions_over_the_wire;
    tc "abrupt disconnect mid-transaction releases the store"
      abrupt_disconnect_mid_transaction;
    tc "16 concurrent clients match the single-threaded oracle"
      concurrent_clients_match_oracle;
    tc "kill mid-commit leaves a WAL that recovery replays cleanly"
      kill_mid_commit_recovers;
    tc "per-request timeout returns a typed error" request_timeout;
    tc "stats verbs and server metrics" stats_verbs_and_metrics;
    tc "plan-cache lookups counted once per request over the wire"
      plan_cache_accounting_over_the_wire;
    tc "metrics verb exposes the whole registry; PROFILE works remotely"
      metrics_verb_and_remote_profile;
    tc "graceful stop drains, checkpoints and truncates the WAL"
      graceful_stop_checkpoints;
    tc "a long read on one connection does not stall another"
      long_read_does_not_stall_others;
    tc "stop and pool shutdown return with a connection idle"
      stop_with_idle_connection;
    tc "domain pool places threads on the least-loaded domain" pool_placement;
    tc "domain pool shutdown leaves domains hosting live threads"
      pool_shutdown_leaves_busy_domains;
    tc "domain pool runs every spawned thread exactly once"
      pool_runs_every_thread_once;
    tc "domain pool serves concurrent spawners" pool_concurrent_spawners;
    tc "an option the server does not read is ignored" unread_option_is_ignored;
  ]

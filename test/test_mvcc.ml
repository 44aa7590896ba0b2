(* MVCC snapshot reads and WAL group commit.

   The regression family killed by the MVCC rewrite, each pinned by a
   test here:
   - a write executed twice under the old optimistic-read-then-rerun
     auto-commit path (double-counting query metrics);
   - readers starved behind a write burst under the old
     writer-preferring readers–writer lock;
   - [snapshot_age] went negative after a backwards NTP step.
   Plus the new machinery itself: AST statement classification, group
   commit batching many commits into one fsync, and a concurrent
   differential fuzz against a single-threaded oracle. *)

open Cypher_values
module Graph = Cypher_graph.Graph
module Engine = Cypher_engine.Engine
module Session = Cypher_session.Session
module Store = Cypher_storage.Store
module Server = Cypher_server.Server
module Client = Cypher_server.Client
module Registry = Cypher_obs.Registry

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "cypher_mvcc_test_%d_%d.db" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists d then
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
    else Sys.mkdir d 0o755;
    d

let open_store dir =
  match Store.open_ dir with
  | Ok s -> s
  | Error e -> Alcotest.failf "cannot open store %s: %s" dir e

let with_server f =
  let dir = fresh_dir () in
  let store = open_store dir in
  let config = { Server.default_config with Server.port = 0 } in
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
    Fun.protect
      ~finally:(fun () -> ignore (Server.stop server))
      (fun () -> f ~store ~connect)

let ok_query ?params client q =
  match Client.query ?params client q with
  | Ok r -> r
  | Error e -> Alcotest.failf "query %S failed: %s" q (Client.error_message e)

(* --- statement classification ------------------------------------------ *)

let classify_statements () =
  let check expected q =
    let show = function
      | Engine.Read_only -> "Read_only"
      | Engine.Update -> "Update"
    in
    Alcotest.(check string) q (show expected) (show (Engine.classify q))
  in
  check Engine.Read_only "MATCH (n) RETURN n";
  check Engine.Read_only "MATCH (n) WHERE n.x > 1 RETURN count(n) AS c";
  check Engine.Read_only "RETURN 1 AS one UNION RETURN 2 AS one";
  check Engine.Update "CREATE (:A {x: 1})";
  check Engine.Update "MATCH (n:A) SET n.x = 2";
  check Engine.Update "MATCH (n:A) REMOVE n.x";
  check Engine.Update "MATCH (n:A) DELETE n";
  check Engine.Update "MERGE (:A {x: 1})";
  check Engine.Update "MATCH (n) WITH n CREATE (:B)";
  (* index DDL rebuilds store structures: a write *)
  check Engine.Update "CREATE INDEX ON :A(x)";
  (* EXPLAIN/PROFILE never apply updates, whatever they wrap *)
  check Engine.Read_only "EXPLAIN CREATE (:A)";
  check Engine.Read_only "PROFILE MATCH (n) RETURN n";
  (* unparseable text is routed to the lock-free path, which reports the
     identical parse error without taking the writer lock *)
  check Engine.Read_only "THIS IS NOT CYPHER"

(* --- satellite 1: a write executes exactly once ------------------------ *)

(* Under the old optimistic-read auto-commit path every write ran twice
   (once under the read lock, discarded; once under the write lock),
   double-counting cypher_engine_queries_* and every span inside the
   engine.  Classification routes it to the writer path up front. *)
let write_executes_once () =
  with_server (fun ~store:_ ~connect ->
      let planned =
        (* Registry.counter is idempotent: this returns the engine's own
           handle, so we can read the live value *)
        Registry.counter "cypher_engine_queries_planned_total"
      in
      let client = connect () in
      Fun.protect ~finally:(fun () -> Client.close client)
        (fun () ->
          let v0 = Registry.value planned in
          ignore (ok_query client "CREATE (:Once {x: 1})");
          Alcotest.(check int) "one CREATE = one engine execution" 1
            (Registry.value planned - v0);
          let v1 = Registry.value planned in
          ignore (ok_query client "MATCH (n:Once) RETURN count(n) AS c");
          Alcotest.(check int) "one read = one engine execution" 1
            (Registry.value planned - v1)))

(* --- group commit ------------------------------------------------------ *)

(* Deterministic batching: park five commits in the queue while holding
   the writer lock, then release it and await.  The first awaiter
   becomes the leader and must flush all five with a single WAL append
   (one fsync), publishing the newest version. *)
let group_commit_shares_one_fsync () =
  let dir = fresh_dir () in
  let store = open_store dir in
  let appends = Registry.counter "cypher_storage_wal_appends_total" in
  let n = 5 in
  (* build the version chain g1..g5 up front *)
  let graphs =
    let rec build g i acc =
      if i > n then List.rev acc
      else
        let { Engine.graph = g'; _ } =
          Engine.run_exn g (Printf.sprintf "CREATE (:G {i: %d})" i)
        in
        build g' (i + 1) (g' :: acc)
    in
    build (Store.snapshot store) 1 []
  in
  let appends0 = Registry.value appends in
  let records0 = Store.wal_records store in
  let seq0 = Store.last_seq store in
  Store.writer_lock store;
  let tickets =
    List.map2
      (fun base g ->
        Store.enqueue_commit store
          {
            Session.c_base = base;
            c_graph = g;
            c_delta = Graph.delta_between ~since:base g;
            c_traces = [];
          })
      (Store.snapshot store :: List.filteri (fun i _ -> i < n - 1) graphs)
      graphs
  in
  Store.writer_unlock store;
  List.iter
    (fun ticket ->
      match Store.await_commit store ticket with
      | Ok () -> ()
      | Error e -> Alcotest.failf "commit failed: %s" e)
    tickets;
  Alcotest.(check int) "five commits shared one fsync" 1
    (Registry.value appends - appends0);
  Alcotest.(check int) "all five commits logged"
    (records0 + n) (Store.wal_records store);
  Alcotest.(check int) "sequence advanced by five" (seq0 + n)
    (Store.last_seq store);
  (* the published version is the newest of the group *)
  (match Engine.run_exn (Store.snapshot store) "MATCH (g:G) RETURN count(g) AS c" with
  | { Engine.table; _ } ->
    (match Cypher_table.Table.rows table with
    | [ row ] ->
      Alcotest.(check bool) "published version carries all five" true
        (Cypher_table.Record.find row "c" = Some (Value.Int n))
    | _ -> Alcotest.fail "expected one row"));
  Store.close store;
  (* recovery replays the grouped records like any others *)
  let again = open_store dir in
  (match Store.run again "MATCH (g:G) RETURN count(g) AS c" with
  | Ok table ->
    (match Cypher_table.Table.rows table with
    | [ row ] ->
      Alcotest.(check bool) "recovered all five" true
        (Cypher_table.Record.find row "c" = Some (Value.Int n))
    | _ -> Alcotest.fail "expected one row")
  | Error e -> Alcotest.fail (Engine.error_message e));
  Store.close again

(* --- satellite 3: readers never wait out a write burst ----------------- *)

(* Under the writer-preferring rwlock a tight write loop starved
   readers.  Under MVCC a reader pins a version and never takes a lock:
   every read must return promptly and see an internally consistent
   version — count n and sum n.i agree (sum = c(c+1)/2 exactly when the
   snapshot is a prefix of the writer's history), and the observed count
   never goes backwards. *)
let readers_see_consistent_versions_during_write_burst () =
  with_server (fun ~store:_ ~connect ->
      let n_creates = 40 in
      let n_readers = 3 in
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
      let writer_done = Atomic.make false in
      let writer =
        Thread.create
          (fun () ->
            let c = connect () in
            Fun.protect ~finally:(fun () -> Client.close c)
              (fun () ->
                for i = 1 to n_creates do
                  ignore
                    (ok_query c
                       ~params:[ ("i", Value.Int i) ]
                       "CREATE (:S {i: $i})")
                done;
                Atomic.set writer_done true))
          ()
      in
      let reader r =
        let c = connect () in
        Fun.protect ~finally:(fun () -> Client.close c)
          (fun () ->
            let last = ref 0 in
            while not (Atomic.get writer_done) do
              match
                Client.query c
                  "MATCH (n:S) RETURN count(n) AS c, sum(n.i) AS s"
              with
              | Ok { Client.columns; rows = [ cells ]; _ } ->
                let cell name =
                  match List.assoc_opt name (List.combine columns cells) with
                  | Some (Value.Int v) -> v
                  | _ -> 0 (* sum over an empty match is null *)
                in
                let c = cell "c" and s = cell "s" in
                if s <> c * (c + 1) / 2 then
                  fail "reader %d: torn version: count %d sum %d" r c s;
                if c < !last then
                  fail "reader %d: count went backwards: %d after %d" r c !last;
                last := c
              | Ok _ -> fail "reader %d: unexpected shape" r
              | Error e -> fail "reader %d: %s" r (Client.error_message e)
            done)
      in
      let readers = List.init n_readers (Thread.create reader) in
      Thread.join writer;
      List.iter Thread.join readers;
      (match Queue.fold (fun acc m -> m :: acc) [] failures with
      | [] -> ()
      | msgs -> Alcotest.fail (String.concat "\n" msgs)))

(* --- satellite 4: differential fuzz vs a single-threaded oracle -------- *)

(* N writer clients each insert i = 1..k under key w (some through
   explicit transactions), M reader clients poll throughout.  Every
   reader result must equal the oracle's state at SOME committed
   version: per writer the observed rows are exactly the prefix
   1..c (max = c, sum = c(c+1)/2), because each writer commits its i in
   order.  At the end the full table must equal a single-threaded oracle
   that ran the same statements. *)
let differential_fuzz_vs_oracle () =
  with_server (fun ~store:_ ~connect ->
      let n_writers = 4 in
      let per_writer = 12 in
      let n_readers = 3 in
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
      let writers_done = Atomic.make 0 in
      let writer w =
        let c = connect () in
        Fun.protect
          ~finally:(fun () ->
            Atomic.incr writers_done;
            Client.close c)
          (fun () ->
            let create i =
              match
                Client.query c
                  ~params:[ ("w", Value.Int w); ("i", Value.Int i) ]
                  "CREATE (:F {w: $w, i: $i})"
              with
              | Ok _ -> ()
              | Error e -> fail "writer %d create %d: %s" w i (Client.error_message e)
            in
            let i = ref 1 in
            while !i <= per_writer do
              if !i mod 4 = 1 && !i + 1 <= per_writer then begin
                (* every fourth pair goes through an explicit transaction:
                   both rows become visible atomically *)
                ignore (ok_query c "BEGIN");
                create !i;
                create (!i + 1);
                ignore (ok_query c "COMMIT");
                i := !i + 2
              end
              else begin
                create !i;
                incr i
              end
            done)
      in
      let reader r =
        let c = connect () in
        Fun.protect ~finally:(fun () -> Client.close c)
          (fun () ->
            while Atomic.get writers_done < n_writers do
              for w = 0 to n_writers - 1 do
                match
                  Client.query c
                    ~params:[ ("w", Value.Int w) ]
                    "MATCH (n:F {w: $w}) RETURN count(n) AS c, sum(n.i) AS \
                     s, max(n.i) AS m"
                with
                | Ok { Client.columns; rows = [ cells ]; _ } ->
                  (* column order over the wire is not the RETURN order:
                     look the cells up by name *)
                  let cell name =
                    match List.assoc_opt name (List.combine columns cells) with
                    | Some (Value.Int v) -> v
                    | _ -> 0
                  in
                  let cnt = cell "c" and s = cell "s" and m = cell "m" in
                  if m <> cnt || s <> cnt * (cnt + 1) / 2 then
                    fail
                      "reader %d writer %d: not a committed prefix: count \
                       %d sum %d max %d"
                      r w cnt s m
                | Ok _ -> fail "reader %d: unexpected shape" r
                | Error e -> fail "reader %d: %s" r (Client.error_message e)
              done
            done)
      in
      let writer_threads = List.init n_writers (Thread.create writer) in
      let reader_threads = List.init n_readers (Thread.create reader) in
      List.iter Thread.join writer_threads;
      List.iter Thread.join reader_threads;
      (match Queue.fold (fun acc m -> m :: acc) [] failures with
      | [] -> ()
      | msgs -> Alcotest.fail (String.concat "\n" msgs));
      (* final state vs the oracle *)
      let oracle = Session.create Graph.empty in
      for w = 0 to n_writers - 1 do
        for i = 1 to per_writer do
          Session.set_params oracle [ ("w", Value.Int w); ("i", Value.Int i) ];
          match Session.run oracle "CREATE (:F {w: $w, i: $i})" with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Engine.error_message e)
        done
      done;
      let q = "MATCH (n:F) RETURN n.w AS w, n.i AS i ORDER BY w, i" in
      let oracle_rows =
        match Session.run oracle q with
        | Ok t ->
          List.map
            (fun row ->
              List.map
                (Cypher_table.Record.find_or_null row)
                (Cypher_table.Table.fields t))
            (Cypher_table.Table.rows t)
        | Error e -> Alcotest.fail (Engine.error_message e)
      in
      let c = connect () in
      let served = (ok_query c q).Client.rows in
      Client.close c;
      Alcotest.(check bool) "final state equals the oracle" true
        (oracle_rows = served))

(* --- satellite 2: snapshot age is never negative ----------------------- *)

(* The age used to be gettimeofday - mtime with no clamp: a backwards
   NTP step (or any future mtime) made it negative.  Simulate the step
   by pushing the snapshot file's mtime into the future. *)
let snapshot_age_never_negative () =
  let dir = fresh_dir () in
  let store = open_store dir in
  (match Store.run store "CREATE (:A {x: 1})" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.error_message e));
  (match Store.checkpoint store with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* in-process: anchored on the monotonic clock *)
  (match Store.snapshot_age store with
  | Some age -> Alcotest.(check bool) "monotonic age >= 0" true (age >= 0.)
  | None -> Alcotest.fail "expected an age after checkpoint");
  Store.close store;
  let future = Unix.gettimeofday () +. 3600. in
  Unix.utimes (Store.snapshot_file dir) future future;
  let again = open_store dir in
  (match Store.snapshot_age again with
  | Some age ->
    Alcotest.(check bool) "mtime from the future clamps to 0" true (age >= 0.)
  | None -> Alcotest.fail "expected an age from the snapshot mtime");
  Store.close again

let suite =
  [
    Alcotest.test_case "classify statements" `Quick classify_statements;
    Alcotest.test_case "a write executes exactly once" `Quick
      write_executes_once;
    Alcotest.test_case "group commit shares one fsync" `Quick
      group_commit_shares_one_fsync;
    Alcotest.test_case "readers are consistent during a write burst" `Quick
      readers_see_consistent_versions_during_write_burst;
    Alcotest.test_case "differential fuzz vs oracle" `Quick
      differential_fuzz_vs_oracle;
    Alcotest.test_case "snapshot age is never negative" `Quick
      snapshot_age_never_negative;
  ]

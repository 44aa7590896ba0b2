(* WAL-shipping replication: snapshot bootstrap and chunked transfer,
   long-poll tailing, read-only rejection on replicas, stream integrity
   (CRC + sequence gaps) with snapshot resync, primary crash + restart
   with replica reconvergence, a randomized differential check that a
   replica's graph is value-identical to the primary's, and
   read-your-writes session consistency through the router. *)

open Helpers
open Cypher_values
module Graph = Cypher_graph.Graph
module Store = Cypher_storage.Store
module Wal = Cypher_storage.Wal
module Snapshot = Cypher_storage.Snapshot
module Protocol = Cypher_server.Protocol
module Server = Cypher_server.Server
module Client = Cypher_server.Client
module Replica = Cypher_replication.Replica
module Router = Cypher_replication.Router
module Registry = Cypher_obs.Registry

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "cypher_repl_test_%d_%d.db" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists d then
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
    else Sys.mkdir d 0o755;
    d

let open_store dir =
  match Store.open_ dir with
  | Ok s -> s
  | Error e -> Alcotest.failf "cannot open store %s: %s" dir e

let start_server ?replica_of ?port store =
  let config =
    {
      Server.default_config with
      port = (match port with Some p -> p | None -> 0);
      replica_of;
    }
  in
  match Server.start ~config store with
  | Ok server -> server
  | Error e -> Alcotest.failf "cannot start server: %s" e

let connect port =
  match Client.connect ~timeout:30. ~host:"127.0.0.1" ~port () with
  | Ok c -> c
  | Error e -> Alcotest.failf "cannot connect: %s" e

(* A snappy replica config so the suite does not sit in long polls. *)
let fast_replica =
  {
    Replica.default_config with
    fetch_wait_ms = 50;
    connect_timeout = 2.0;
    retry = { Client.attempts = 8; base_delay = 0.01; max_delay = 0.1 };
  }

let start_replica ?(config = fast_replica) ~port store =
  match Replica.start ~config ~host:"127.0.0.1" ~port store with
  | Ok r -> r
  | Error e -> Alcotest.failf "cannot start replica: %s" e

let ok_query ?params ?options client q =
  match Client.query ?params ?options client q with
  | Ok r -> r
  | Error e -> Alcotest.failf "query %S failed: %s" q (Client.error_message e)

let int_cell { Client.rows; _ } =
  match rows with
  | [ [ Value.Int n ] ] -> n
  | _ -> Alcotest.fail "expected a single integer cell"

let await_seq replica ~seq =
  if not (Replica.wait_for_seq replica ~seq ~timeout:10.) then
    Alcotest.failf "replica stuck at seq %d, wanted %d"
      (Replica.last_applied replica) seq

(* Value-identity of two stores: identical snapshot encodings (nodes,
   rels, labels, properties, indexes, and id watermarks — everything
   but the seq header, which is pinned to 0 here). *)
let check_identical msg primary_store replica_store =
  let enc store = Snapshot.encode ~last_seq:0 (fst (Store.committed_with_seq store)) in
  Alcotest.(check bool) msg true (enc primary_store = enc replica_store)

let counter_value name = Registry.value (Registry.counter name)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn > 0 && go 0

(* --- bootstrap, tailing, read-only serving ----------------------------- *)

let bootstrap_and_tail () =
  (* the primary has committed data BEFORE the replica ever connects, so
     joining requires the snapshot transfer, not just the record tail *)
  let pdir = fresh_dir () in
  let pstore = open_store pdir in
  (match Store.run pstore "CREATE (:Person {name: 'Ada', city: 'London'})" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e));
  (match Store.checkpoint pstore with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let primary = start_server pstore in
  let pport = Server.port primary in
  let rdir = fresh_dir () in
  let rstore = open_store rdir in
  let replica = start_replica ~port:pport rstore in
  let rserver =
    start_server ~replica_of:("127.0.0.1", pport) rstore
  in
  Fun.protect
    ~finally:(fun () ->
      Replica.stop replica;
      Server.kill rserver;
      ignore (Server.stop primary))
    (fun () ->
      (* bootstrap carried the pre-existing node *)
      await_seq replica ~seq:1;
      let rc = connect (Server.port rserver) in
      let pc = connect pport in
      Fun.protect
        ~finally:(fun () ->
          Client.close rc;
          Client.close pc)
        (fun () ->
          Alcotest.(check int)
            "bootstrapped node visible on replica" 1
            (int_cell (ok_query rc "MATCH (p:Person) RETURN count(p)"));
          (* continuous tailing: new commits appear on the replica *)
          let r = ok_query pc "CREATE (:Person {name: 'Grace'})" in
          Alcotest.(check bool) "write answer carries a seq" true (r.Client.seq > 0);
          await_seq replica ~seq:r.Client.seq;
          Alcotest.(check int)
            "tailed write visible on replica" 2
            (int_cell (ok_query rc "MATCH (p:Person) RETURN count(p)"));
          (* a replica refuses writes with a typed error naming the primary *)
          (match Client.query rc "CREATE (:Nope)" with
          | Error { Client.kind = Protocol.Read_only_replica; message } ->
            Alcotest.(check bool) "rejection names the primary" true
              (contains message (string_of_int pport))
          | Error e ->
            Alcotest.failf "wrong rejection: %s" (Client.error_message e)
          | Ok _ -> Alcotest.fail "replica accepted a write");
          (* BEGIN is refused up front too *)
          (match Client.query rc "BEGIN" with
          | Error { Client.kind = Protocol.Read_only_replica; _ } -> ()
          | _ -> Alcotest.fail "replica accepted BEGIN")))

(* the chunked 'B' transfer reassembles to a decodable snapshot even
   with a tiny chunk size *)
let chunked_bootstrap () =
  let pdir = fresh_dir () in
  let pstore = open_store pdir in
  for i = 1 to 10 do
    match Store.run pstore (Printf.sprintf "CREATE (:N {i: %d})" i) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e)
  done;
  let primary = start_server pstore in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop primary))
    (fun () ->
      let c = connect (Server.port primary) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.repl_bootstrap ~chunk:7 c with
          | Error e -> Alcotest.fail (Client.error_message e)
          | Ok bytes -> (
            match Snapshot.decode bytes with
            | Error e -> Alcotest.fail e
            | Ok (g, seq) ->
              Alcotest.(check int) "snapshot carries all nodes" 10
                (Graph.node_count g);
              Alcotest.(check int) "snapshot watermark" 10 seq)))

(* --- stream integrity -------------------------------------------------- *)

let validate_batch_checks () =
  let dir = fresh_dir () in
  let store = open_store dir in
  for i = 1 to 5 do
    match Store.run store (Printf.sprintf "CREATE (:N {i: %d})" i) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e)
  done;
  let fetched = Store.fetch_since store ~from_seq:1 ~max_records:100 in
  let frames = List.map snd fetched.Store.fr_records in
  Alcotest.(check int) "five frames buffered" 5 (List.length frames);
  (* the happy path decodes and is contiguous *)
  (match Replica.validate_batch ~expect_seq:1 frames with
  | Ok records ->
    Alcotest.(check (list int)) "seqs" [ 1; 2; 3; 4; 5 ]
      (List.map (fun r -> r.Wal.seq) records)
  | Error e -> Alcotest.fail e);
  (* a dropped record is a sequence gap, not a silent skip *)
  (match
     Replica.validate_batch ~expect_seq:1
       (List.filteri (fun i _ -> i <> 2) frames)
   with
  | Error e -> Alcotest.(check bool) "gap detected" true (contains e "gap")
  | Ok _ -> Alcotest.fail "sequence gap not detected");
  (* a flipped payload byte fails the CRC *)
  (let corrupt =
     List.mapi
       (fun i f ->
         if i <> 1 then f
         else begin
           let b = Bytes.of_string f in
           Bytes.set b (Bytes.length b - 1)
             (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 0xFF));
           Bytes.to_string b
         end)
       frames
   in
   match Replica.validate_batch ~expect_seq:1 corrupt with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "corrupt frame not detected");
  (* a truncated frame is rejected outright *)
  (match Replica.validate_batch ~expect_seq:1 [ "\x03\x00" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated frame not detected");
  (* starting in the middle is a gap from the applier's perspective *)
  (match Replica.validate_batch ~expect_seq:3 frames with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong start seq not detected");
  Store.close store

let fetch_since_semantics () =
  let dir = fresh_dir () in
  let store = open_store dir in
  for i = 1 to 6 do
    match Store.run store (Printf.sprintf "CREATE (:N {i: %d})" i) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e)
  done;
  let f = Store.fetch_since store ~from_seq:1 ~max_records:100 in
  Alcotest.(check bool) "serves from 1" false f.Store.fr_resync;
  Alcotest.(check int) "all six" 6 (List.length f.Store.fr_records);
  Alcotest.(check int) "frontier" 6 f.Store.fr_last_seq;
  (* past the frontier: empty, not a resync *)
  let f = Store.fetch_since store ~from_seq:7 ~max_records:100 in
  Alcotest.(check bool) "no resync past frontier" false f.Store.fr_resync;
  Alcotest.(check int) "empty past frontier" 0 (List.length f.Store.fr_records);
  (* max_records bounds the batch *)
  let f = Store.fetch_since store ~from_seq:1 ~max_records:2 in
  Alcotest.(check int) "bounded batch" 2 (List.length f.Store.fr_records);
  (* and so does max_bytes; a first record past it needs a snapshot *)
  let first = String.length (snd (List.hd f.Store.fr_records)) in
  let f = Store.fetch_since ~max_bytes:(first + 1) store ~from_seq:1 ~max_records:100 in
  Alcotest.(check int) "byte-bounded batch" 1 (List.length f.Store.fr_records);
  let f = Store.fetch_since ~max_bytes:(first - 1) store ~from_seq:1 ~max_records:100 in
  Alcotest.(check bool) "an oversized record flags resync" true f.Store.fr_resync;
  (* shrinking retention raises the floor: early seqs now need a resync *)
  Store.set_repl_retention store 2;
  let f = Store.fetch_since store ~from_seq:1 ~max_records:100 in
  Alcotest.(check bool) "below the floor flags resync" true f.Store.fr_resync;
  let f = Store.fetch_since store ~from_seq:5 ~max_records:100 in
  Alcotest.(check bool) "still-buffered seqs serve" false f.Store.fr_resync;
  Alcotest.(check int) "tail of two" 2 (List.length f.Store.fr_records);
  (* the buffer survives a checkpoint *)
  (match Store.checkpoint store with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let f = Store.fetch_since store ~from_seq:5 ~max_records:100 in
  Alcotest.(check int) "buffer survives checkpoint" 2
    (List.length f.Store.fr_records);
  Store.close store

(* a replica that falls behind the primary's retention window rebuilds
   itself from a fresh snapshot instead of applying a gapped stream *)
let resync_after_falling_behind () =
  let pdir = fresh_dir () in
  let pstore = open_store pdir in
  Store.set_repl_retention pstore 4;
  let primary = start_server pstore in
  let pport = Server.port primary in
  let rdir = fresh_dir () in
  let rstore = open_store rdir in
  let replica = start_replica ~port:pport rstore in
  Fun.protect
    ~finally:(fun () ->
      Replica.stop replica;
      ignore (Server.stop primary))
    (fun () ->
      let pc = connect pport in
      Fun.protect
        ~finally:(fun () -> Client.close pc)
        (fun () ->
          let resyncs_before = counter_value "cypher_repl_resyncs_total" in
          (* freeze the applier, then blow far past the 4-record buffer *)
          Replica.pause replica;
          let last = ref 0 in
          for i = 1 to 30 do
            last := (ok_query pc (Printf.sprintf "CREATE (:B {i: %d})" i)).Client.seq
          done;
          Replica.resume replica;
          await_seq replica ~seq:!last;
          check_identical "replica converges after resync" pstore rstore;
          Alcotest.(check bool) "a snapshot resync happened" true
            (counter_value "cypher_repl_resyncs_total" > resyncs_before)))

(* --- primary crash ----------------------------------------------------- *)

let primary_crash_and_reconnect () =
  let pdir = fresh_dir () in
  let pstore = open_store pdir in
  let primary = start_server pstore in
  let pport = Server.port primary in
  let rdir = fresh_dir () in
  let rstore = open_store rdir in
  let replica = start_replica ~port:pport rstore in
  let pc = connect pport in
  let last = ref 0 in
  for i = 1 to 10 do
    last := (ok_query pc (Printf.sprintf "CREATE (:C {i: %d})" i)).Client.seq
  done;
  Client.close pc;
  await_seq replica ~seq:!last;
  (* kill the primary without checkpoint or drain — crash-equivalent —
     and smear a torn half-record onto its WAL, as a crash mid-append
     would *)
  Server.kill primary;
  let wal = Store.wal_file pdir in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 wal in
  output_string oc "\x40\x00\x00\x00\x99\x99";
  close_out oc;
  (* recovery truncates the torn tail and the server comes back on the
     same port; the replica reconnects by itself and keeps tailing *)
  let pstore = open_store pdir in
  Alcotest.(check int) "recovery kept every acked commit" !last
    (Store.last_seq pstore);
  let primary = start_server ~port:pport pstore in
  Fun.protect
    ~finally:(fun () ->
      Replica.stop replica;
      ignore (Server.stop primary))
    (fun () ->
      let pc = connect pport in
      Fun.protect
        ~finally:(fun () -> Client.close pc)
        (fun () ->
          let final = ref 0 in
          for i = 11 to 20 do
            final :=
              (ok_query pc (Printf.sprintf "CREATE (:C {i: %d})" i)).Client.seq
          done;
          await_seq replica ~seq:!final;
          check_identical "replica reconverges after primary crash" pstore
            rstore))

(* --- randomized differential ------------------------------------------- *)

let randomized_differential () =
  let pdir = fresh_dir () in
  let pstore = open_store pdir in
  let primary = start_server pstore in
  let pport = Server.port primary in
  let rdir = fresh_dir () in
  let rstore = open_store rdir in
  let replica = start_replica ~port:pport rstore in
  Fun.protect
    ~finally:(fun () ->
      Replica.stop replica;
      ignore (Server.stop primary))
    (fun () ->
      let pc = connect pport in
      Fun.protect
        ~finally:(fun () -> Client.close pc)
        (fun () ->
          let rng = Random.State.make [| 0xC0FFEE |] in
          let last = ref 0 in
          let run q =
            let r = ok_query pc q in
            if r.Client.seq > 0 then last := max !last r.Client.seq
          in
          for step = 1 to 120 do
            match Random.State.int rng 10 with
            | 0 | 1 | 2 ->
              run
                (Printf.sprintf "CREATE (:P {id: %d, v: %d})" step
                   (Random.State.int rng 1000))
            | 3 | 4 ->
              run
                (Printf.sprintf "MATCH (p:P {id: %d}) SET p.v = %d"
                   (1 + Random.State.int rng step)
                   (Random.State.int rng 1000))
            | 5 ->
              run
                (Printf.sprintf "MATCH (p:P {id: %d}) DETACH DELETE p"
                   (1 + Random.State.int rng step))
            | 6 ->
              run
                (Printf.sprintf
                   "MATCH (a:P {id: %d}), (b:P {id: %d}) CREATE \
                    (a)-[:KNOWS {w: %d}]->(b)"
                   (1 + Random.State.int rng step)
                   (1 + Random.State.int rng step)
                   (Random.State.int rng 100))
            | 7 | 8 ->
              (* an explicit multi-statement transaction, committed *)
              run "BEGIN";
              run (Printf.sprintf "CREATE (:T {id: %d})" step);
              run
                (Printf.sprintf "MATCH (t:T {id: %d}) SET t.done = true" step);
              run "COMMIT"
            | _ ->
              (* a rolled-back transaction must leave no trace on either
                 side — it never reaches the WAL at all *)
              run "BEGIN";
              run (Printf.sprintf "CREATE (:Ghost {id: %d})" step);
              run "ROLLBACK"
          done;
          await_seq replica ~seq:!last;
          check_identical "replica is value-identical after a mixed workload"
            pstore rstore;
          Alcotest.(check int) "no ghosts from rolled-back transactions" 0
            (int_cell (ok_query pc "MATCH (g:Ghost) RETURN count(g)"))))

(* The recovery workload of the storage tests, over the wire: the
   replica's graph is the primary's, adjacency order and id watermarks
   included, and its log holds the very bytes the primary's does. *)
let replica_equals_primary () =
  let pdir = fresh_dir () in
  let pstore = open_store pdir in
  let primary = start_server pstore in
  let pport = Server.port primary in
  let rdir = fresh_dir () in
  let rstore = open_store rdir in
  let replica = start_replica ~port:pport rstore in
  Fun.protect
    ~finally:(fun () ->
      Replica.stop replica;
      ignore (Server.stop primary))
    (fun () ->
      let pc = connect pport in
      Fun.protect
        ~finally:(fun () -> Client.close pc)
        (fun () ->
          let last = ref 0 in
          let run q = last := max !last (ok_query pc q).Client.seq in
          List.iter run
            [
              "CREATE (a:P {k: 1})-[:R {w: 1}]->(b:P {k: 2})-[:R {w: 2}]->(c:P \
               {k: 3}), (c)-[:R {w: 3}]->(a), (a)-[:R {w: 4}]->(c), (b)-[:S]->(b)";
              "MATCH (:P {k: 1})-[r:R {w: 1}]->() SET r.w = 10";
              "MATCH (n:P {k: 2}) REMOVE n:P SET n:Q";
              "CREATE INDEX ON :P(k)";
              "MATCH (a:P {k: 1}), (c:P {k: 3}) CREATE (c)-[:R {w: 5}]->(a), \
               (a)-[:T]->(a)";
              "MATCH (n:P {k: 3}) DETACH DELETE n";
              "CREATE (:P {k: 4})-[:R]->(:P {k: 5})";
              "DROP INDEX ON :P(k)";
              "BEGIN";
              "CREATE (:Gap)";
              "MATCH (g:Gap) DELETE g";
              "COMMIT";
            ];
          await_seq replica ~seq:!last;
          Test_storage.check_same_graph "replica" (Store.snapshot pstore)
            (Store.snapshot rstore);
          Alcotest.(check string) "the replica logged the primary's bytes"
            (Test_storage.read_file (Store.wal_file pdir))
            (Test_storage.read_file (Store.wal_file rdir))))

(* --- session consistency ----------------------------------------------- *)

(* a client must never read staler than its own last write, even when
   its reads land on a lagging replica: the router stamps the session
   high-water seq on replica reads and falls through to the primary
   when the replica cannot catch up in time *)
let session_consistency () =
  let pdir = fresh_dir () in
  let pstore = open_store pdir in
  let primary = start_server pstore in
  let pport = Server.port primary in
  let rdir = fresh_dir () in
  let rstore = open_store rdir in
  let replica = start_replica ~port:pport rstore in
  let rserver = start_server ~replica_of:("127.0.0.1", pport) rstore in
  Fun.protect
    ~finally:(fun () ->
      Replica.stop replica;
      Server.kill rserver;
      ignore (Server.stop primary))
    (fun () ->
      let config = { Router.default_config with min_seq_wait_ms = 30 } in
      let router =
        match
          Router.create ~config
            ~primary:("127.0.0.1", pport)
            ~replicas:[ ("127.0.0.1", Server.port rserver) ]
            ()
        with
        | Ok r -> r
        | Error e -> Alcotest.failf "router: %s" e
      in
      Fun.protect
        ~finally:(fun () -> Router.close router)
        (fun () ->
          let rq ?params ?options q =
            match Router.query ?params ?options router q with
            | Ok r -> r
            | Error e ->
              Alcotest.failf "router query %S: %s" q (Client.error_message e)
          in
          ignore (rq "CREATE (:Counter {v: 0})");
          Alcotest.(check bool) "high-water advanced by the write" true
            (Router.high_water router > 0);
          let check_round i =
            ignore (rq (Printf.sprintf "MATCH (c:Counter) SET c.v = %d" i));
            let seen = int_cell (rq "MATCH (c:Counter) RETURN c.v") in
            Alcotest.(check int)
              (Printf.sprintf "read-your-writes at round %d" i)
              i seen
          in
          (* replica healthy: replica reads are already fresh enough *)
          for i = 1 to 5 do
            check_round i
          done;
          (* replica frozen: every replica read is stale and must fall
             through to the primary, still never going backwards *)
          let fallbacks_before =
            counter_value "cypher_router_stale_fallbacks_total"
          in
          Replica.pause replica;
          for i = 6 to 10 do
            check_round i
          done;
          Alcotest.(check bool) "stale replica bounced reads to the primary"
            true
            (counter_value "cypher_router_stale_fallbacks_total"
            > fallbacks_before);
          Replica.resume replica;
          (* healthy again: catch up and keep the invariant *)
          await_seq replica ~seq:(Router.high_water router);
          for i = 11 to 15 do
            check_round i
          done))

(* the typed stale answer itself, driven directly without the router *)
let stale_replica_error () =
  let pdir = fresh_dir () in
  let pstore = open_store pdir in
  let primary = start_server pstore in
  let pport = Server.port primary in
  let rdir = fresh_dir () in
  let rstore = open_store rdir in
  let replica = start_replica ~port:pport rstore in
  let rserver = start_server ~replica_of:("127.0.0.1", pport) rstore in
  Fun.protect
    ~finally:(fun () ->
      Replica.stop replica;
      Server.kill rserver;
      ignore (Server.stop primary))
    (fun () ->
      let rc = connect (Server.port rserver) in
      Fun.protect
        ~finally:(fun () -> Client.close rc)
        (fun () ->
          match
            Client.query
              ~options:
                [
                  ("min_seq", Value.Int 1_000_000);
                  ("min_seq_wait_ms", Value.Int 20);
                ]
              rc "MATCH (n) RETURN count(n)"
          with
          | Error { Client.kind = Protocol.Stale_replica; _ } -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Client.error_message e)
          | Ok _ -> Alcotest.fail "read served despite an unreachable min_seq"))

(* --- client retry ------------------------------------------------------ *)

let connect_retry_backoff () =
  (* a port with no listener: bounded attempts, then a clean error *)
  let dead_port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> Alcotest.fail "no port"
    in
    Unix.close fd;
    port
  in
  let t0 = Unix.gettimeofday () in
  (match
     Client.connect_retry
       ~retry:{ Client.attempts = 3; base_delay = 0.02; max_delay = 0.05 }
       ~connect_timeout:0.5 ~host:"127.0.0.1" ~port:dead_port ()
   with
  | Error _ -> ()
  | Ok c ->
    Client.close c;
    Alcotest.fail "connected to a dead port");
  let elapsed = Unix.gettimeofday () -. t0 in
  (* two backoff sleeps happened (jitter floor 0.5×): 0.02/2 + 0.04/2 *)
  Alcotest.(check bool) "backoff actually slept" true (elapsed >= 0.02);
  (* and a live server connects on the first try *)
  let dir = fresh_dir () in
  let store = open_store dir in
  let server = start_server store in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop server))
    (fun () ->
      match
        Client.connect_retry ~connect_timeout:1.0 ~host:"127.0.0.1"
          ~port:(Server.port server) ()
      with
      | Ok c -> Client.close c
      | Error e -> Alcotest.fail e)

let suite =
  [
    tc "bootstrap from snapshot, tail the WAL, reject writes" bootstrap_and_tail;
    tc "chunked snapshot transfer reassembles" chunked_bootstrap;
    tc "batch validation: CRC, gaps, truncation" validate_batch_checks;
    tc "fetch_since: floor, frontier, retention, checkpoint" fetch_since_semantics;
    tc "replica past retention resyncs from a snapshot" resync_after_falling_behind;
    tc "primary crash: torn WAL, restart, replica reconverges"
      primary_crash_and_reconnect;
    tc "a replica's graph and log equal the primary's" replica_equals_primary;
    tc "randomized mixed workload: replica is value-identical"
      randomized_differential;
    tc "read-your-writes through the router under lag" session_consistency;
    tc "stale replica answers with a typed error" stale_replica_error;
    tc "connect retry backs off and stays bounded" connect_retry_backoff;
  ]

(* Parallel read execution: the morsel-driven executor must return the
   same table — same rows, same order — as the sequential Volcano
   executor, for every plan shape and worker count.  Also covers the
   domain pool itself, the float→integer conversion guards, the
   non-finite percentile guard, and parallel reads over the network
   server. *)

open Helpers
open Cypher_values
open Cypher_gen
module Engine = Cypher_engine.Engine
module Domain_pool = Cypher_engine.Domain_pool
module Config = Cypher_semantics.Config
module Table = Cypher_table.Table
module Server = Cypher_server.Server
module Client = Cypher_server.Client
module Store = Cypher_storage.Store

let par_cfg n = Config.with_parallel n Config.default

let run_with cfg g q =
  match Engine.query ~config:cfg g q with
  | Ok outcome -> Ok outcome.Engine.table
  | Error e -> Error e

(* Runs [q] sequentially and at several worker counts; results must be
   identical — ordered, not just bag-equal, because contiguous morsels
   plus ordered merges reproduce the sequential row order exactly.
   Errors must agree too. *)
let check_same g q =
  let seq = run_with Config.default g q in
  List.iter
    (fun workers ->
      let par = run_with (par_cfg workers) g q in
      match (seq, par) with
      | Ok t_seq, Ok t_par ->
        if not (Table.equal_ordered t_seq t_par) then
          Alcotest.failf "%S differs at %d workers:@.sequential:@.%a@.parallel:@.%a"
            q workers Table.pp t_seq Table.pp t_par
      | Error _, Error _ -> ()
      | Ok _, Error e ->
        Alcotest.failf "%S: parallel (%d workers) failed: %s" q workers
            (Engine.error_message e)
      | Error e, Ok _ ->
        Alcotest.failf "%S: sequential failed (%s) but parallel succeeded" q
            (Engine.error_message e))
    [ 2; 4 ]

(* --- plan-shape coverage ---------------------------------------------- *)

let social = Generate.social ~seed:7 ~people:60 ~avg_friends:5

let shapes_queries =
  [
    (* plain streaming pipeline: scan + expand + filter + project *)
    "MATCH (a:Person)-[:FRIEND]->(b) WHERE a.age > 30 RETURN a.name, b.name";
    (* aggregation without keys over an expand *)
    "MATCH (a:Person)-[:FRIEND]->(b) RETURN count(b)";
    (* grouped aggregation: count, sum, avg, collect *)
    "MATCH (a:Person)-[:FRIEND]->(b) RETURN a.name, count(b), sum(b.age), \
     avg(b.age)";
    "MATCH (a:Person) RETURN a.age % 10 AS bucket, collect(a.name)";
    (* float sums must be bitwise identical (non-associative) *)
    "MATCH (a:Person) RETURN sum(a.age * 0.1), avg(a.age * 0.3)";
    (* min/max/distinct aggregation *)
    "MATCH (a:Person)-[:FRIEND]->(b) RETURN a.name, min(b.age), max(b.age), \
     count(DISTINCT b.age)";
    (* percentiles *)
    "MATCH (a:Person) RETURN percentileCont(a.age, 0.5), \
     percentileDisc(a.age, 0.9)";
    (* DISTINCT *)
    "MATCH (a:Person)-[:FRIEND]->(b) RETURN DISTINCT b.age";
    (* ORDER BY with ties (stability), SKIP and LIMIT *)
    "MATCH (a:Person)-[:FRIEND]->(b) RETURN a.name, b.name ORDER BY a.age \
     SKIP 5 LIMIT 20";
    "MATCH (a:Person) RETURN a.name ORDER BY a.age DESC, a.name LIMIT 7";
    (* LIMIT directly over a scan pipeline (morsel push-down) *)
    "MATCH (a:Person)-[:FRIEND]->(b) RETURN a.name LIMIT 3";
    (* UNWIND above a match *)
    "MATCH (a:Person) UNWIND [1,2] AS i RETURN a.name, i LIMIT 40";
    (* WITH continuation: second read segment driven by a wide table *)
    "MATCH (a:Person)-[:FRIEND]->(b) WITH a, count(b) AS friends WHERE \
     friends > 2 MATCH (a)-[:FRIEND]->(c) RETURN a.name, friends, count(c)";
    (* OPTIONAL MATCH (apply operator inside the pipeline) *)
    "MATCH (a:Person) OPTIONAL MATCH (a)-[:FRIEND]->(b) WHERE b.age > 60 \
     RETURN a.name, b.name";
    (* variable-length expand and path projection *)
    "MATCH p = (a:Person)-[:FRIEND*1..2]->(c) RETURN a.name, length(p), \
     c.name ORDER BY a.name, length(p), c.name LIMIT 25";
    (* runtime error mid-stream must surface identically *)
    "MATCH (a:Person) RETURN a.name / 2";
  ]

let test_plan_shapes () = List.iter (check_same social) shapes_queries

(* --- fuzz differential ------------------------------------------------ *)

let test_fuzz_differential () =
  let rng = Prng.create 20260806 in
  for round = 1 to 120 do
    let g =
      Generate.random_uniform
        ~seed:(Prng.int rng 1_000_000)
        ~nodes:(3 + Prng.int rng 8)
        ~rels:(Prng.int rng 14) ~rel_types:[ "A"; "B" ] ~labels:[ "X"; "Y" ]
    in
    let q = Workload.random_read_query rng in
    let seq = run_with Config.default g q in
    List.iter
      (fun workers ->
        match (seq, run_with (par_cfg workers) g q) with
        | Ok t_seq, Ok t_par ->
          if not (Table.bag_equal t_seq t_par) then
            Alcotest.failf
              "fuzz round %d, %d workers: %S@.sequential:@.%a@.parallel:@.%a"
              round workers q Table.pp t_seq Table.pp t_par
        | Error _, Error _ -> ()
        | Ok _, Error e ->
          Alcotest.failf "fuzz round %d, %d workers: %S parallel failed: %s"
            round workers q (Engine.error_message e)
        | Error e, Ok _ ->
          Alcotest.failf
            "fuzz round %d, %d workers: %S sequential failed (%s), parallel \
             succeeded"
            round workers q (Engine.error_message e))
      [ 2; 4 ]
  done

(* --- the domain pool -------------------------------------------------- *)

let test_pool_runs_all_tasks () =
  (* start from an empty pool: the server tests grow it to one request
     domain per core, and their connection threads have all ended *)
  ignore (Domain_pool.shutdown ());
  let n = 200 in
  let hits = Array.make n (Atomic.make 0) in
  for i = 0 to n - 1 do
    hits.(i) <- Atomic.make 0
  done;
  Domain_pool.run ~workers:4 n (fun i -> Atomic.incr hits.(i));
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "task %d runs exactly once" i) 1
        (Atomic.get c))
    hits;
  Alcotest.(check bool) "pool spawned at most workers-1 domains" true
    (Domain_pool.size () <= 3)

let test_pool_concurrent_jobs () =
  (* jobs submitted from several threads at once must all complete (the
     caller always participates, so no job can starve) *)
  let total = Atomic.make 0 in
  let threads =
    List.init 6 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 5 do
              Domain_pool.run ~workers:3 8 (fun _ -> Atomic.incr total)
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "all tasks of all jobs ran" (6 * 5 * 8)
    (Atomic.get total)

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

let test_pool_placement () =
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

let test_pool_shutdown_leaves_busy_domains () =
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
  let total = Atomic.make 0 in
  Domain_pool.run ~workers:2 4 (fun _ -> Atomic.incr total);
  Alcotest.(check int) "a job after shutdown still runs" 4 (Atomic.get total)

(* --- float → integer conversion guards -------------------------------- *)

let expect_error g q =
  match Engine.query g q with
  | Ok _ -> Alcotest.failf "%S: expected an error" q
  | Error e -> e

let test_to_integer_edges () =
  let g = Cypher_graph.Graph.empty in
  expect_bag g "RETURN toInteger(2.9) AS i" [ "i" ] [ [ ("i", vint 2) ] ];
  expect_bag g "RETURN toInteger(-2.9) AS i" [ "i" ] [ [ ("i", vint (-2)) ] ];
  expect_bag g "RETURN toInteger('1e3') AS i" [ "i" ] [ [ ("i", vint 1000) ] ];
  expect_bag g "RETURN toInteger(4.0e18) AS i" [ "i" ]
    [ [ ("i", vint 4_000_000_000_000_000_000) ] ];
  (* beyond the 63-bit range, NaN, infinities: deterministic errors, not
     hardware truncation garbage *)
  List.iter
    (fun q ->
      match expect_error g q with
      | Engine.Runtime_error _ -> ()
      | e ->
        Alcotest.failf "%S: expected a runtime error, got %S" q
          (Engine.error_message e))
    [
      "RETURN toInteger(1e300)";
      "RETURN toInteger(-1e300)";
      "RETURN toInteger(1.0/0.0)";
      "RETURN toInteger(-1.0/0.0)";
      "RETURN toInteger(0.0/0.0)";
      "RETURN toInteger('1e300')";
      "RETURN toInteger(9.3e18)";
    ];
  (* the float below the 2^62 boundary still converts *)
  expect_bag g "RETURN toInteger(-4.611686018427387904e18) AS i" [ "i" ]
    [ [ ("i", vint (-4611686018427387904)) ] ]

(* --- percentile argument guard ---------------------------------------- *)

let test_percentile_non_finite () =
  let g = Cypher_graph.Graph.empty in
  List.iter
    (fun q ->
      let e = expect_error g q in
      if not (String.length (Engine.error_message e) > 0) then
        Alcotest.failf "%S: expected an error" q)
    [
      (* NaN slips through a [pct < 0 || pct > 1] check — the guard must
         reject every non-finite percentile in both variants *)
      "UNWIND [1,2,3] AS x RETURN percentileCont(x, 0.0/0.0)";
      "UNWIND [1,2,3] AS x RETURN percentileDisc(x, 0.0/0.0)";
      "UNWIND [1,2,3] AS x RETURN percentileCont(x, 1.0/0.0)";
      "UNWIND [1,2,3] AS x RETURN percentileDisc(x, -1.0/0.0)";
    ];
  (* the boundaries themselves remain valid *)
  expect_bag g "UNWIND [1,2,3] AS x RETURN percentileCont(x, 0.0) AS p"
    [ "p" ]
    [ [ ("p", Value.Float 1.) ] ];
  expect_bag g "UNWIND [1,2,3] AS x RETURN percentileDisc(x, 1.0) AS p"
    [ "p" ]
    [ [ ("p", vint 3) ] ]

(* --- parallel reads over the server ----------------------------------- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "cypher_parallel_test_%d_%d.db" (Unix.getpid ())
           !counter)
    in
    if Sys.file_exists d then
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
    else Sys.mkdir d 0o755;
    d

let test_server_parallel_readers () =
  let dir = fresh_dir () in
  let store =
    match Store.open_ dir with
    | Ok s -> s
    | Error e -> Alcotest.failf "cannot open store: %s" e
  in
  match
    Server.start ~config:{ Server.default_config with Server.port = 0 } store
  with
  | Error e -> Alcotest.failf "cannot start server: %s" e
  | Ok server ->
    Fun.protect
      ~finally:(fun () -> ignore (Server.stop server))
      (fun () ->
        let connect () =
          match
            Client.connect ~timeout:30. ~host:"127.0.0.1"
              ~port:(Server.port server) ()
          with
          | Ok c -> c
          | Error e -> Alcotest.failf "cannot connect: %s" e
        in
        (* seed: 40 people, age i, a FRIEND chain *)
        let c0 = connect () in
        (match
           Client.query c0
             "UNWIND range(1, 40) AS i CREATE (:Person {age: i})"
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "seed failed: %s" (Client.error_message e));
        Client.close c0;
        let expected_sum = 40 * 41 / 2 in
        let errors = ref [] in
        let errors_lock = Mutex.create () in
        let reader () =
          let c = connect () in
          for _ = 1 to 10 do
            match
              Client.query
                ~options:[ ("parallel", Value.Int 4) ]
                c "MATCH (p:Person) RETURN sum(p.age) AS s"
            with
            | Ok { Client.rows = [ [ Value.Int s ] ]; _ }
              when s = expected_sum ->
              ()
            | Ok r ->
              Mutex.lock errors_lock;
              errors :=
                Printf.sprintf "wrong result: %d rows" (List.length r.Client.rows)
                :: !errors;
              Mutex.unlock errors_lock
            | Error e ->
              Mutex.lock errors_lock;
              errors := Client.error_message e :: !errors;
              Mutex.unlock errors_lock
          done;
          Client.close c
        in
        let threads = List.init 4 (fun _ -> Thread.create reader ()) in
        List.iter Thread.join threads;
        match !errors with
        | [] -> ()
        | e :: _ ->
          Alcotest.failf "%d reader errors; first: %s" (List.length !errors) e)

let suite =
  [
    tc "parallel matches sequential on every plan shape" test_plan_shapes;
    tc "fuzz: parallel agrees with sequential on 120 random queries"
      test_fuzz_differential;
    tc "domain pool runs every task exactly once" test_pool_runs_all_tasks;
    tc "domain pool survives concurrent jobs" test_pool_concurrent_jobs;
    tc "domain pool places threads on the least-loaded domain"
      test_pool_placement;
    tc "domain pool shutdown leaves domains hosting live threads"
      test_pool_shutdown_leaves_busy_domains;
    tc "toInteger edge values" test_to_integer_edges;
    tc "non-finite percentiles are rejected" test_percentile_non_finite;
    tc "server: concurrent parallel readers" test_server_parallel_readers;
  ]

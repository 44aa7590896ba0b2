(* Tests for incremental view maintenance (lib/ivm).

   The centerpiece is a differential fuzz: a randomized update workload
   (creates, node and relationship property updates, label flips,
   deletes, transactions with rollbacks) runs against a session whose commits feed a view manager,
   and after every commit each maintained view must be bag-equal to a
   fresh re-execution of its query on the committed graph.  View shapes
   cover the incremental fragment (paths, WHERE, bag/DISTINCT
   projections, grouped and global aggregates, direction variants) and
   deliberate fallback shapes (ORDER BY, WITH) — fallback must degrade
   to re-execution, never to wrong answers. *)

open Helpers
module Session = Cypher_session.Session
module Graph = Cypher_graph.Graph
module Table = Cypher_table.Table
module Record = Cypher_table.Record
module Engine = Cypher_engine.Engine
module Ivm = Cypher_ivm.Ivm
module Value = Cypher_values.Value

let run_ok sess q =
  match Session.run sess q with
  | Ok t -> t
  | Error e -> Alcotest.failf "%s failed: %s" q (Engine.error_message e)

let fresh_table g q =
  match Engine.query ~mode:Engine.Planned g q with
  | Ok o -> o.Engine.table
  | Error e -> Alcotest.failf "fresh execution of %s failed: %s" q
      (Engine.error_message e)

let read_ok mgr name =
  match Ivm.read mgr name with
  | Ok (tbl, _seq) -> tbl
  | Error Ivm.Unknown_view -> Alcotest.failf "view %s unknown" name
  | Error (Ivm.Stale s) -> Alcotest.failf "view %s stale at %d" name s
  | Error (Ivm.Failed e) -> Alcotest.failf "view %s failed: %s" name e

let materialize_ok mgr name query =
  match Ivm.materialize mgr ~name ~query with
  | Ok _seq -> ()
  | Error e -> Alcotest.failf "materialize %s: %s" name (Engine.error_message e)

(* A session wired to a view manager exactly the way the server wires
   the store: every durable commit notifies the manager with the new
   committed graph and a bumped sequence number. *)
let wired_session ?(seed = []) () =
  let mgr_ref = ref None in
  let seq = ref 0 in
  let committed = ref Graph.empty in
  let on_commit (c : Session.commit) =
    committed := c.Session.c_graph;
    incr seq;
    match !mgr_ref with
    | Some m -> Ivm.notify m c.Session.c_graph !seq
    | None -> ()
  in
  let sess = Session.create ~on_commit Graph.empty in
  List.iter (fun q -> ignore (run_ok sess q)) seed;
  committed := Session.graph sess;
  let mgr = Ivm.create (Session.graph sess) !seq in
  mgr_ref := Some mgr;
  (sess, mgr, committed)

(* --- the view shapes under test ----------------------------------------- *)

(* (name, query, expect_incremental) *)
let shapes =
  [
    ("ages", "MATCH (p:Person) RETURN p.age AS age", true);
    ("ages_d", "MATCH (p:Person) RETURN DISTINCT p.age AS age", true);
    ("cities", "MATCH (p:Person) RETURN p.city AS city, count(*) AS c", true);
    ("total", "MATCH (p:Person) RETURN count(*) AS n", true);
    ( "stats",
      "MATCH (p:Person) RETURN sum(p.age) AS s, avg(p.age) AS a, \
       min(p.age) AS lo, max(p.age) AS hi",
      true );
    ( "pairs",
      "MATCH (a:Person)-[:FRIEND]->(b:Person) RETURN a.age AS x, b.age AS y",
      true );
    ( "older",
      "MATCH (a:Person)-[f:FRIEND]->(b) WHERE a.age > b.age \
       RETURN a.age AS x, count(*) AS c",
      true );
    ( "hops",
      "MATCH (a)-[:FRIEND]->(b)-[:FRIEND]->(c) RETURN count(*) AS paths",
      true );
    ( "und",
      "MATCH (a:Person)-[:FRIEND]-(b:Person) RETURN b.age AS age",
      true );
    ("grp1", "MATCH (p:Person {grp: 1}) RETURN p.age AS age", true);
    ("rev", "MATCH (a)<-[:FRIEND]-(b) RETURN count(*) AS c", true);
    ("vips", "MATCH (v:Vip) RETURN v.age AS age, count(*) AS c", true);
    ( "heavy",
      "MATCH (a:Person)-[f:FRIEND]->(b) WHERE f.w > 4 RETURN count(*) AS c",
      true );
    (* outside the fragment: must fall back, stay correct *)
    ("ordered", "MATCH (p:Person) RETURN p.age AS age ORDER BY age", false);
    ( "piped",
      "MATCH (p:Person) WITH p.city AS city, count(*) AS c WHERE c > 1 \
       RETURN city, c",
      false );
  ]

let check_views mgr committed ctx =
  Ivm.quiesce mgr;
  List.iter
    (fun (name, query, _) ->
      let expected = fresh_table committed query in
      let actual = read_ok mgr name in
      if not (Table.bag_equal expected actual) then
        Alcotest.failf "%s: view %s diverged from fresh execution:@.%s@.%a@.vs@.%a"
          ctx name query Table.pp expected Table.pp actual)
    shapes

(* --- randomized workload ------------------------------------------------ *)

let fuzz_differential () =
  let st = Random.State.make [| 0xC0FFEE; 42 |] in
  let rint n = Random.State.int st n in
  let next_k = ref 0 in
  let live = ref [] in
  let fresh_k () =
    incr next_k;
    live := !next_k :: !live;
    !next_k
  in
  let pick () = List.nth !live (rint (List.length !live)) in
  let sess, mgr, committed = wired_session () in
  (* seed population before registering views *)
  for _ = 1 to 8 do
    let k = fresh_k () in
    ignore
      (run_ok sess
         (Printf.sprintf
            "CREATE (:Person {k: %d, age: %d, city: %d, grp: %d})" k (rint 8)
            (rint 4) (rint 3)))
  done;
  for _ = 1 to 6 do
    ignore
      (run_ok sess
         (Printf.sprintf
            "MATCH (a:Person {k: %d}), (b:Person {k: %d}) \
             CREATE (a)-[:FRIEND {w: %d}]->(b)"
            (pick ()) (pick ()) (rint 10)))
  done;
  Ivm.notify mgr (Session.graph sess) 1;
  Ivm.quiesce mgr;
  List.iter
    (fun (name, query, expect_inc) ->
      materialize_ok mgr name query;
      let info =
        List.find
          (fun i -> String.equal i.Ivm.vi_name name)
          (Ivm.view_infos mgr)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s incremental?" name)
        expect_inc info.Ivm.vi_incremental)
    shapes;
  check_views mgr !committed "after registration";
  let op () =
    match rint 11 with
    | 0 | 1 ->
      let k = fresh_k () in
      Printf.sprintf "CREATE (:Person {k: %d, age: %d, city: %d, grp: %d})" k
        (rint 8) (rint 4) (rint 3)
    | 2 | 3 ->
      Printf.sprintf
        "MATCH (a:Person {k: %d}), (b:Person {k: %d}) \
         CREATE (a)-[:FRIEND {w: %d}]->(b)"
        (pick ()) (pick ()) (rint 10)
    | 4 -> Printf.sprintf "MATCH (p:Person {k: %d}) SET p.age = %d" (pick ()) (rint 8)
    | 5 -> Printf.sprintf "MATCH (p:Person {k: %d}) SET p.city = %d" (pick ()) (rint 4)
    | 6 -> Printf.sprintf "MATCH (p {k: %d}) SET p:Vip" (pick ())
    | 7 -> Printf.sprintf "MATCH (p {k: %d}) REMOVE p:Vip" (pick ())
    | 8 ->
      Printf.sprintf "MATCH (a:Person {k: %d})-[r:FRIEND]->() DELETE r" (pick ())
    | 9 ->
      Printf.sprintf "MATCH (:Person {k: %d})-[r:FRIEND]->() SET r.w = %d"
        (pick ()) (rint 10)
    | _ ->
      let k = pick () in
      live := List.filter (fun x -> x <> k) !live;
      if !live = [] then ignore (fresh_k ());
      Printf.sprintf "MATCH (p {k: %d}) DETACH DELETE p" k
  in
  for i = 1 to 90 do
    (if !live = [] then ignore (fresh_k ()));
    (match rint 6 with
    | 0 ->
      (* a transaction, sometimes nested, sometimes rolled back *)
      Session.begin_tx sess;
      ignore (run_ok sess (op ()));
      if rint 2 = 0 then begin
        Session.begin_tx sess;
        ignore (run_ok sess (op ()));
        (match
           (if rint 2 = 0 then Session.commit sess else Session.rollback sess)
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Engine.error_message e))
      end;
      ignore (run_ok sess (op ()));
      (match
         (if rint 3 = 0 then Session.rollback sess else Session.commit sess)
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Engine.error_message e))
    | _ -> ignore (run_ok sess (op ())));
    if i mod 3 = 0 then
      check_views mgr !committed (Printf.sprintf "after op %d" i)
  done;
  check_views mgr !committed "final";
  (* every incremental view must have actually refreshed incrementally,
     and never through a full rebuild: no commit here outruns the
     journal, so a rebuild would mean a delta run failed *)
  List.iter
    (fun info ->
      if info.Ivm.vi_incremental then begin
        Alcotest.(check bool)
          (Printf.sprintf "%s refreshed incrementally" info.Ivm.vi_name)
          true
          (info.Ivm.vi_incrementals > 0);
        Alcotest.(check int)
          (Printf.sprintf "%s never rebuilt" info.Ivm.vi_name)
          0 info.Ivm.vi_fallbacks
      end)
    (Ivm.view_infos mgr);
  Ivm.shutdown mgr

(* A self-loop at one person, created and then deleted: an undirected
   pattern matches it once, with both ends at that person, and a
   two-hop path may walk it at either hop.  After each commit every view
   must equal fresh execution. *)
let self_loop_views () =
  let sess, mgr, committed =
    wired_session
      ~seed:
        [
          "UNWIND range(1, 4) AS i CREATE (:Person {k: i})";
          "MATCH (a:Person), (b:Person) WHERE b.k = a.k + 1 CREATE \
           (a)-[:FRIEND]->(b)";
        ]
      ()
  in
  let views =
    [
      ( "und",
        "MATCH (a:Person)-[r:FRIEND]-(b:Person) RETURN a.k AS x, b.k AS y" );
      ("hops", "MATCH (a)-[:FRIEND]->(b)-[:FRIEND]->(c) RETURN count(*) AS n");
    ]
  in
  List.iter (fun (name, query) -> materialize_ok mgr name query) views;
  let check ctx =
    Ivm.quiesce mgr;
    List.iter
      (fun (name, query) ->
        check_table_bag
          (Printf.sprintf "%s %s" name ctx)
          (fresh_table !committed query) (read_ok mgr name))
      views
  in
  check "before the loop";
  ignore (run_ok sess "MATCH (p:Person {k: 2}) CREATE (p)-[:FRIEND]->(p)");
  check "with the loop";
  ignore (run_ok sess "MATCH (p:Person {k: 2})-[r:FRIEND]->(p) DELETE r");
  check "after the loop";
  List.iter
    (fun info ->
      Alcotest.(check bool) (info.Ivm.vi_name ^ " incremental") true
        info.Ivm.vi_incremental;
      Alcotest.(check int) (info.Ivm.vi_name ^ " never rebuilt") 0
        info.Ivm.vi_fallbacks)
    (Ivm.view_infos mgr);
  Ivm.shutdown mgr

(* A commit that crosses one journal reset is still a delta: the graph
   keeps the epoch the reset closed, so the view refreshes
   incrementally. *)
let journal_reset_stays_incremental () =
  let sess, mgr, committed = wired_session () in
  ignore (run_ok sess "CREATE (:Person {k: 0, age: 1, city: 0, grp: 0})");
  Ivm.quiesce mgr;
  materialize_ok mgr "n" "MATCH (p:Person) RETURN count(*) AS n";
  (* one statement creating 70k nodes crosses the 64k journal cap once *)
  ignore
    (run_ok sess
       "UNWIND range(1, 70000) AS i CREATE (:Person {k: i, age: 1, city: 0, \
        grp: 0})");
  Ivm.quiesce mgr;
  let expected = fresh_table !committed "MATCH (p:Person) RETURN count(*) AS n" in
  check_table_bag "count across the reset" expected (read_ok mgr "n");
  let info = List.hd (Ivm.view_infos mgr) in
  Alcotest.(check int) "no fallback refresh" 0 info.Ivm.vi_fallbacks;
  Alcotest.(check bool) "refreshed incrementally" true
    (info.Ivm.vi_incrementals > 0);
  Ivm.shutdown mgr

(* A single commit touching more entities than the graph's change
   journal retains forces the no-delta path: views must rebuild, not
   lie. *)
let journal_overflow_falls_back () =
  let sess, mgr, committed = wired_session () in
  ignore (run_ok sess "CREATE (:Person {k: 0, age: 1, city: 0, grp: 0})");
  Ivm.quiesce mgr;
  materialize_ok mgr "n" "MATCH (p:Person) RETURN count(*) AS n";
  (* one statement creating 140k nodes crosses the 64k journal cap twice,
     past the two epochs the graph keeps *)
  ignore
    (run_ok sess
       "UNWIND range(1, 140000) AS i CREATE (:Person {k: i, age: 1, city: 0, \
        grp: 0})");
  Ivm.quiesce mgr;
  let expected = fresh_table !committed "MATCH (p:Person) RETURN count(*) AS n" in
  check_table_bag "count after overflow" expected (read_ok mgr "n");
  let info = List.hd (Ivm.view_infos mgr) in
  Alcotest.(check bool) "used fallback refresh" true (info.Ivm.vi_fallbacks > 0);
  (* the view stays registered and incremental for subsequent small deltas *)
  ignore (run_ok sess "CREATE (:Person {k: -1, age: 9, city: 0, grp: 0})");
  Ivm.quiesce mgr;
  let expected = fresh_table !committed "MATCH (p:Person) RETURN count(*) AS n" in
  check_table_bag "count after small delta" expected (read_ok mgr "n");
  Ivm.shutdown mgr

let unmaterialize_and_reuse () =
  let sess, mgr, _ = wired_session () in
  ignore (run_ok sess "CREATE (:Person {k: 1, age: 5, city: 0, grp: 0})");
  Ivm.quiesce mgr;
  materialize_ok mgr "v" "MATCH (p:Person) RETURN p.age AS age";
  (match Ivm.materialize mgr ~name:"v" ~query:"MATCH (n) RETURN n.age AS a" with
  | Ok _ -> Alcotest.fail "duplicate name accepted"
  | Error _ -> ());
  Alcotest.(check int) "one view" 1 (Ivm.view_count mgr);
  (match Ivm.unmaterialize mgr "v" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Engine.error_message e));
  Alcotest.(check int) "evicted" 0 (Ivm.view_count mgr);
  (match Ivm.read mgr "v" with
  | Error Ivm.Unknown_view -> ()
  | _ -> Alcotest.fail "read of evicted view should be Unknown_view");
  (* the name is reusable and the new view refreshes *)
  materialize_ok mgr "v" "MATCH (p:Person) RETURN count(*) AS n";
  ignore (run_ok sess "CREATE (:Person {k: 2, age: 6, city: 0, grp: 0})");
  Ivm.quiesce mgr;
  check_table_bag "reused name live" (table [ "n" ] [ [ ("n", vint 2) ] ])
    (read_ok mgr "v");
  (match Ivm.unmaterialize mgr "nope" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unmaterialize of unknown view succeeded");
  Ivm.shutdown mgr

let rejects_updates_and_garbage () =
  let _sess, mgr, _ = wired_session () in
  (match Ivm.materialize mgr ~name:"w" ~query:"CREATE (:X)" with
  | Ok _ -> Alcotest.fail "update query materialized"
  | Error _ -> ());
  (match Ivm.materialize mgr ~name:"w" ~query:"MATCH (n RETURN" with
  | Ok _ -> Alcotest.fail "unparsable query materialized"
  | Error _ -> ());
  (match Ivm.materialize mgr ~name:"bad name!" ~query:"MATCH (n) RETURN n" with
  | Ok _ -> Alcotest.fail "invalid name accepted"
  | Error _ -> ());
  Alcotest.(check int) "nothing registered" 0 (Ivm.view_count mgr);
  Ivm.shutdown mgr

(* --- subscriptions ------------------------------------------------------ *)

let apply_frame bag (f : Ivm.frame) =
  let add sign bag (row, m) =
    Ivm.Vlmap.update row
      (fun o ->
        match Option.value o ~default:0 + (sign * m) with
        | 0 -> None
        | v when v > 0 -> Some v
        | _ -> Alcotest.fail "frame removed a row below zero")
      bag
  in
  let bag = List.fold_left (add 1) bag f.Ivm.f_added in
  List.fold_left (add (-1)) bag f.Ivm.f_removed

let drain mgr sub =
  let rec go acc =
    match Ivm.next_frame mgr sub ~timeout_s:0.2 with
    | `Frame f -> go (f :: acc)
    | `Timeout | `Closed -> List.rev acc
  in
  go []

let bag_of_view_table tbl =
  Table.fold_left
    (fun m r ->
      let row = List.map snd (Record.to_list r) in
      Ivm.Vlmap.update row (fun o -> Some (Option.value o ~default:0 + 1)) m)
    Ivm.Vlmap.empty tbl

(* Two subscribers to the same query see the same frame stream: an init
   frame first, then one delta frame per refresh in ascending seq
   order, and the accumulated frames reconstruct the view exactly. *)
let subscribe_delivery_order () =
  let sess, mgr, _ = wired_session () in
  ignore (run_ok sess "CREATE (:Person {k: 1, age: 3, city: 0, grp: 0})");
  Ivm.quiesce mgr;
  let query = "MATCH (p:Person) RETURN p.city AS city, count(*) AS c" in
  let sub_of = function
    | Ok s -> s
    | Error e -> Alcotest.failf "subscribe: %s" (Engine.error_message e)
  in
  let s1 = sub_of (Ivm.subscribe mgr ~query) in
  let s2 = sub_of (Ivm.subscribe mgr ~query) in
  for i = 2 to 6 do
    ignore
      (run_ok sess
         (Printf.sprintf "CREATE (:Person {k: %d, age: %d, city: %d, grp: 0})"
            i i (i mod 3)))
  done;
  ignore (run_ok sess "MATCH (p:Person {k: 3}) DETACH DELETE p");
  Ivm.quiesce mgr;
  let f1 = drain mgr s1 and f2 = drain mgr s2 in
  Alcotest.(check bool) "both got frames" true (List.length f1 > 1);
  Alcotest.(check int) "same frame count" (List.length f1) (List.length f2);
  List.iter2
    (fun (a : Ivm.frame) (b : Ivm.frame) ->
      Alcotest.(check int) "same seq" a.Ivm.f_seq b.Ivm.f_seq;
      Alcotest.(check bool) "same init flag" a.Ivm.f_init b.Ivm.f_init;
      Alcotest.(check bool)
        "same deltas" true
        (a.Ivm.f_added = b.Ivm.f_added && a.Ivm.f_removed = b.Ivm.f_removed))
    f1 f2;
  (match f1 with
  | first :: rest ->
    Alcotest.(check bool) "first frame is init" true first.Ivm.f_init;
    List.iter
      (fun (f : Ivm.frame) ->
        Alcotest.(check bool) "later frames are deltas" false f.Ivm.f_init)
      rest;
    let seqs = List.map (fun (f : Ivm.frame) -> f.Ivm.f_seq) f1 in
    Alcotest.(check bool)
      "seq ascending" true
      (List.sort_uniq compare seqs = seqs)
  | [] -> Alcotest.fail "no frames");
  (* frames tile: init + deltas == current view contents *)
  let accumulated = List.fold_left apply_frame Ivm.Vlmap.empty f1 in
  let current = bag_of_view_table (read_ok mgr (Ivm.subscription_view s1)) in
  Alcotest.(check bool)
    "frames reconstruct the view" true
    (Ivm.Vlmap.equal ( = ) accumulated current);
  (* the subscription-owned anonymous view dies with its last subscriber *)
  Ivm.unsubscribe mgr s1;
  Alcotest.(check int) "view survives first unsubscribe" 1 (Ivm.view_count mgr);
  Ivm.unsubscribe mgr s2;
  Alcotest.(check int) "auto view dropped" 0 (Ivm.view_count mgr);
  Ivm.shutdown mgr

let subscribe_existing_view () =
  let sess, mgr, _ = wired_session () in
  ignore (run_ok sess "CREATE (:Person {k: 1, age: 3, city: 0, grp: 0})");
  Ivm.quiesce mgr;
  let query = "MATCH (p:Person) RETURN count(*) AS n" in
  materialize_ok mgr "counts" query;
  let sub =
    match Ivm.subscribe mgr ~query with
    | Ok s -> s
    | Error e -> Alcotest.failf "subscribe: %s" (Engine.error_message e)
  in
  Alcotest.(check string)
    "attached to the named view" "counts" (Ivm.subscription_view sub);
  Ivm.unsubscribe mgr sub;
  (* a named view is NOT dropped when its subscribers leave *)
  Alcotest.(check int) "named view survives" 1 (Ivm.view_count mgr);
  Ivm.shutdown mgr

(* A view keeps what it shows, not one entry per match: a grouped count
   over 8000 people holds five groups, whatever the number of people. *)
let state_does_not_grow_with_matches () =
  let sess = Session.create Graph.empty in
  ignore (run_ok sess "UNWIND range(1, 8000) AS i CREATE (:Person {city: i % 5})");
  let g = Session.graph sess in
  let query = "MATCH (p:Person) RETURN p.city AS city, count(*) AS c" in
  (* what the engine builds and keeps on a first run over [g] is not the
     view's *)
  ignore (fresh_table g query);
  let mgr = Ivm.create g 0 in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live_words () in
  materialize_ok mgr "cities" query;
  let grown = (live_words () - before) * (Sys.word_size / 8) in
  Alcotest.(check int) "five groups" 5 (Table.row_count (read_ok mgr "cities"));
  Ivm.shutdown (Sys.opaque_identity mgr);
  ignore (Sys.opaque_identity g);
  if grown >= 65536 then
    Alcotest.failf "materializing grew the live heap by %d bytes" grown

(* Reads and frame pulls wait on the manager's condition variable: a
   read waiting for a seq returns as soon as that seq is published, and
   the deadlines of [read] and [next_frame] are kept. *)
let waits_and_deadlines () =
  let sess, mgr, _ = wired_session ~seed:[ "CREATE (:Person {city: 1})" ] () in
  let query = "MATCH (p:Person) RETURN p.city AS city, count(*) AS c" in
  materialize_ok mgr "cities" query;
  let seq0 = Ivm.last_refreshed_seq mgr in
  let got = ref None in
  let reader =
    Thread.create
      (fun () ->
        got := Some (Ivm.read ~min_seq:(seq0 + 1) ~wait_ms:30_000 mgr "cities"))
      ()
  in
  ignore (run_ok sess "CREATE (:Person {city: 2})");
  Thread.join reader;
  (match !got with
  | Some (Ok (tbl, seq)) ->
    Alcotest.(check int) "the published seq" (seq0 + 1) seq;
    Alcotest.(check int) "both cities" 2 (Table.row_count tbl)
  | Some (Error (Ivm.Stale s)) -> Alcotest.failf "read stale at %d" s
  | Some (Error _) | None -> Alcotest.fail "read failed");
  let elapsed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (match elapsed (fun () -> Ivm.read ~min_seq:(seq0 + 100) ~wait_ms:50 mgr "cities") with
  | Error (Ivm.Stale s), dt ->
    Alcotest.(check int) "stale at the view's seq" (seq0 + 1) s;
    Alcotest.(check bool) "waited out wait_ms" true (dt >= 0.05)
  | _ -> Alcotest.fail "expected Stale");
  let sub =
    match Ivm.subscribe mgr ~query with
    | Ok s -> s
    | Error e -> Alcotest.failf "subscribe: %s" (Engine.error_message e)
  in
  (match Ivm.next_frame mgr sub ~timeout_s:1. with
  | `Frame f -> Alcotest.(check bool) "init frame" true f.Ivm.f_init
  | _ -> Alcotest.fail "expected the init frame");
  (match elapsed (fun () -> Ivm.next_frame mgr sub ~timeout_s:0.05) with
  | `Timeout, dt ->
    Alcotest.(check bool) "waited out timeout_s" true (dt >= 0.05)
  | _ -> Alcotest.fail "expected Timeout");
  Ivm.unsubscribe mgr sub;
  Ivm.shutdown mgr

(* --- over the wire ------------------------------------------------------ *)

module Store = Cypher_storage.Store
module Server = Cypher_server.Server
module Client = Cypher_server.Client
module Protocol = Cypher_server.Protocol
module Replica = Cypher_replication.Replica

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "cypher_ivm_test_%d_%d.db" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists d then
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
    else Sys.mkdir d 0o755;
    d

let open_store dir =
  match Store.open_ dir with
  | Ok s -> s
  | Error e -> Alcotest.failf "cannot open store %s: %s" dir e

let start_server ?replica_of store =
  let config =
    { Server.default_config with Server.port = 0; replica_of }
  in
  match Server.start ~config store with
  | Ok server -> server
  | Error e -> Alcotest.failf "cannot start server: %s" e

let connect port =
  match Client.connect ~timeout:30. ~host:"127.0.0.1" ~port () with
  | Ok c -> c
  | Error e -> Alcotest.failf "cannot connect: %s" e

let ok_query ?params client q =
  match Client.query ?params client q with
  | Ok r -> r
  | Error e -> Alcotest.failf "query %S failed: %s" q (Client.error_message e)

let views_over_the_wire () =
  let store = open_store (fresh_dir ()) in
  let server = start_server store in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop server))
    (fun () ->
      let c = connect (Server.port server) in
      ignore (ok_query c "CREATE (:Person {k: 1, city: 1})");
      (match
         Client.materialize c ~name:"cities"
           ~query:"MATCH (p:Person) RETURN p.city AS city, count(*) AS c"
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "materialize: %s" (Client.error_message e));
      (* a duplicate registration is a typed error *)
      (match Client.materialize c ~name:"cities" ~query:"MATCH (n) RETURN n" with
      | Ok _ -> Alcotest.fail "duplicate view name accepted over the wire"
      | Error _ -> ());
      let w = ok_query c "CREATE (:Person {k: 2, city: 1})" in
      Alcotest.(check bool) "write carries seq" true (w.Client.seq > 0);
      (* session consistency: read at least as fresh as our own write *)
      (match
         Client.view_read ~min_seq:w.Client.seq ~wait_ms:5000 c ~name:"cities"
       with
      | Ok r ->
        Alcotest.(check bool) "view is fresh" true (r.Client.seq >= w.Client.seq);
        (* columns are sorted: c before city *)
        Alcotest.(check bool)
          "two people in city 1" true
          (r.Client.rows = [ [ Value.Int 2; Value.Int 1 ] ])
      | Error e -> Alcotest.failf "view read: %s" (Client.error_message e));
      (* an unreachable freshness floor is a typed stale answer *)
      (match
         Client.view_read ~min_seq:(w.Client.seq + 1000) ~wait_ms:50 c
           ~name:"cities"
       with
      | Error { Client.kind = Protocol.Stale_replica; _ } -> ()
      | Ok _ -> Alcotest.fail "expected a stale answer"
      | Error e -> Alcotest.failf "wrong error kind: %s" (Client.error_message e));
      (* the listing shows the view as incremental *)
      (match Client.list_views c with
      | Ok { Client.columns; rows; _ } ->
        Alcotest.(check int) "one view listed" 1 (List.length rows);
        let col name row =
          match List.assoc_opt name (List.combine columns row) with
          | Some v -> v
          | None -> Alcotest.failf "missing column %s" name
        in
        let row = List.hd rows in
        Alcotest.(check bool) "named" true
          (col "name" row = Value.String "cities");
        Alcotest.(check bool) "incremental" true
          (col "mode" row = Value.String "incremental")
      | Error e -> Alcotest.failf "list: %s" (Client.error_message e));
      (match Client.unmaterialize c ~name:"cities" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "unmaterialize: %s" (Client.error_message e));
      (match Client.view_read c ~name:"cities" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "read of dropped view succeeded");
      Client.close c)

(* Two clients subscribe to the same query before any write; both must
   see an init frame and then identical delta streams, and the
   connection must return to request mode after unsubscribing. *)
let multi_client_subscribe_order () =
  let store = open_store (fresh_dir ()) in
  let server = start_server store in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop server))
    (fun () ->
      let port = Server.port server in
      let writer = connect port in
      let w0 = ok_query writer "CREATE (:Person {k: 0, city: 0})" in
      (* A view is built from the manager's last refreshed version, which
         trails the acknowledged commit until the refresh thread takes
         it; wait for it, or the two subscribers could legitimately
         attach on either side of the CREATE. *)
      let views = Server.views server in
      let deadline = Unix.gettimeofday () +. 10. in
      while
        Ivm.last_refreshed_seq views < w0.Client.seq
        && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.005
      done;
      Ivm.quiesce views;
      let query = "MATCH (p:Person) RETURN p.city AS city, count(*) AS c" in
      let c1 = connect port and c2 = connect port in
      let sub c =
        match Client.subscribe c ~query with
        | Ok s -> s
        | Error e -> Alcotest.failf "subscribe: %s" (Client.error_message e)
      in
      let next s =
        match Client.next_delta s with
        | Ok (Some d) -> d
        | Ok None -> Alcotest.fail "stream ended early"
        | Error e -> Alcotest.failf "next_delta: %s" (Client.error_message e)
      in
      let s1 = sub c1 in
      let i1 = next s1 in
      Alcotest.(check bool) "first frame is init" true i1.Client.d_init;
      let s2 = sub c2 in
      let i2 = next s2 in
      Alcotest.(check bool) "second client init" true i2.Client.d_init;
      Alcotest.(check int) "init frames at one seq" i1.Client.d_seq i2.Client.d_seq;
      Alcotest.(check bool)
        "init frames agree" true
        (i1.Client.d_added = i2.Client.d_added);
      let last = ref 0 in
      for k = 1 to 5 do
        let w =
          ok_query writer
            (Printf.sprintf "CREATE (:Person {k: %d, city: %d})" k (k mod 2))
        in
        last := w.Client.seq
      done;
      (* both subscribers drain until they have caught up to the last
         write; the streams must be frame-for-frame identical *)
      let drain s =
        let rec go acc =
          let d = next s in
          if d.Client.d_seq >= !last then List.rev (d :: acc)
          else go (d :: acc)
        in
        go []
      in
      let f1 = drain s1 and f2 = drain s2 in
      Alcotest.(check int) "same number of frames" (List.length f1)
        (List.length f2);
      List.iter2
        (fun (a : Client.delta) (b : Client.delta) ->
          Alcotest.(check int) "same seq" a.Client.d_seq b.Client.d_seq;
          Alcotest.(check bool)
            "same payload" true
            (a.Client.d_added = b.Client.d_added
            && a.Client.d_removed = b.Client.d_removed
            && not a.Client.d_init))
        f1 f2;
      (* deltas were pushed, not re-sent full states: the last frame
         must not carry every row *)
      (match List.rev f1 with
      | last_frame :: _ ->
        Alcotest.(check bool) "frame is a delta, not a snapshot" true
          (List.length last_frame.Client.d_added <= 2)
      | [] -> Alcotest.fail "no frames");
      (* unsubscribe returns the connection to request mode *)
      (match Client.unsubscribe s1 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "unsubscribe: %s" (Client.error_message e));
      let r = ok_query c1 "MATCH (p:Person) RETURN count(*) AS n" in
      Alcotest.(check bool) "request mode restored" true
        (r.Client.rows = [ [ Value.Int 6 ] ]);
      Client.close c1;
      (* c2 just drops its socket mid-subscription: the server must not
         wedge (stop below would hang if it did) *)
      Client.close c2;
      Client.close writer)

(* Replica satellite: subscriptions and view reads on a [--replica-of]
   server refresh from applied replication batches, and [min_seq]
   session consistency carries over with a typed [Stale_replica]. *)
let replica_views_and_subscriptions () =
  let pstore = open_store (fresh_dir ()) in
  (match Store.run pstore "CREATE (:Person {k: 0, city: 0})" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.error_message e));
  let primary = start_server pstore in
  let pport = Server.port primary in
  let rstore = open_store (fresh_dir ()) in
  let replica_cfg =
    {
      Replica.default_config with
      fetch_wait_ms = 50;
      connect_timeout = 2.0;
      retry = { Client.attempts = 8; base_delay = 0.01; max_delay = 0.1 };
    }
  in
  let replica =
    match Replica.start ~config:replica_cfg ~host:"127.0.0.1" ~port:pport rstore with
    | Ok r -> r
    | Error e -> Alcotest.failf "cannot start replica: %s" e
  in
  let rserver = start_server ~replica_of:("127.0.0.1", pport) rstore in
  Fun.protect
    ~finally:(fun () ->
      Replica.stop replica;
      Server.kill rserver;
      ignore (Server.stop primary))
    (fun () ->
      if not (Replica.wait_for_seq replica ~seq:1 ~timeout:10.) then
        Alcotest.fail "replica never caught up with the bootstrap";
      let rc = connect (Server.port rserver) in
      let pc = connect pport in
      (* views are read-only: registration on the replica is allowed *)
      (match
         Client.materialize rc ~name:"cities"
           ~query:"MATCH (p:Person) RETURN p.city AS city, count(*) AS c"
       with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "materialize on replica: %s" (Client.error_message e));
      let sub =
        match
          Client.subscribe rc
            ~query:"MATCH (p:Person) RETURN count(*) AS n"
        with
        | Ok s -> s
        | Error e -> Alcotest.failf "subscribe: %s" (Client.error_message e)
      in
      (match Client.next_delta sub with
      | Ok (Some d) -> Alcotest.(check bool) "init frame" true d.Client.d_init
      | _ -> Alcotest.fail "no init frame on the replica");
      (* write on the PRIMARY; the replica's views must catch up *)
      let w = ok_query pc "CREATE (:Person {k: 1, city: 0})" in
      (match Client.next_delta sub with
      | Ok (Some d) ->
        Alcotest.(check bool) "delta from a replicated batch" true
          (not d.Client.d_init);
        Alcotest.(check bool) "count moved to 2" true
          (d.Client.d_added = [ ([ Value.Int 2 ], 1) ])
      | Ok None -> Alcotest.fail "replica subscription ended early"
      | Error e -> Alcotest.failf "replica delta: %s" (Client.error_message e));
      Client.close rc;
      (* a fresh connection reads the view with the primary write's seq
         as its freshness floor — the session-consistency contract *)
      let rc2 = connect (Server.port rserver) in
      (match
         Client.view_read ~min_seq:w.Client.seq ~wait_ms:5000 rc2 ~name:"cities"
       with
      | Ok r ->
        Alcotest.(check bool) "fresh view on replica" true
          (r.Client.seq >= w.Client.seq
          && r.Client.rows = [ [ Value.Int 2; Value.Int 0 ] ])
      | Error e ->
        Alcotest.failf "replica view read: %s" (Client.error_message e));
      (match
         Client.view_read ~min_seq:(w.Client.seq + 1000) ~wait_ms:50 rc2
           ~name:"cities"
       with
      | Error { Client.kind = Protocol.Stale_replica; _ } -> ()
      | Ok _ -> Alcotest.fail "expected Stale_replica on the replica"
      | Error e ->
        Alcotest.failf "wrong stale error: %s" (Client.error_message e));
      Client.close rc2;
      Client.close pc)

let suite =
  [
    Alcotest.test_case "differential fuzz: maintained == fresh" `Slow
      fuzz_differential;
    Alcotest.test_case "a self-loop created and deleted" `Quick self_loop_views;
    Alcotest.test_case "a delta across one journal reset stays incremental"
      `Slow journal_reset_stays_incremental;
    Alcotest.test_case "journal overflow falls back" `Slow
      journal_overflow_falls_back;
    Alcotest.test_case "unmaterialize evicts and frees the name" `Quick
      unmaterialize_and_reuse;
    Alcotest.test_case "rejects updates and invalid input" `Quick
      rejects_updates_and_garbage;
    Alcotest.test_case "subscription delivery order" `Quick
      subscribe_delivery_order;
    Alcotest.test_case "subscribe attaches to existing view" `Quick
      subscribe_existing_view;
    Alcotest.test_case "state does not grow with matches" `Quick
      state_does_not_grow_with_matches;
    Alcotest.test_case "waits end on publish or deadline" `Quick
      waits_and_deadlines;
    Alcotest.test_case "view verbs over the wire" `Slow views_over_the_wire;
    Alcotest.test_case "multi-client subscription delivery order" `Slow
      multi_client_subscribe_order;
    Alcotest.test_case "replica views, subscriptions and min_seq" `Slow
      replica_views_and_subscriptions;
  ]

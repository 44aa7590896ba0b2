(* The durable storage subsystem: binary codec round trips (property
   based, over the fuzz value generator extended with temporal values,
   NaN/infinities and empty containers), snapshot save/load isomorphism
   with identical identifiers, WAL torn-tail / corrupt-interior
   recovery, and kill-and-recover equivalence through the Store. *)

open Helpers
open Cypher_values
open Cypher_gen
module Graph = Cypher_graph.Graph
module Codec = Cypher_storage.Codec
module Crc32 = Cypher_storage.Crc32
module Snapshot = Cypher_storage.Snapshot
module Wal = Cypher_storage.Wal
module Store = Cypher_storage.Store
module Session = Cypher_session.Session
module Engine = Cypher_engine.Engine
module Q = QCheck

(* --- scratch files ---------------------------------------------------- *)

let fresh_path =
  let counter = ref 0 in
  fun suffix ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cypher_storage_test_%d_%d%s" (Unix.getpid ()) !counter
         suffix)

let fresh_dir () =
  let d = fresh_path ".db" in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
  else Sys.mkdir d 0o755;
  d

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* --- codec: property-based round trips -------------------------------- *)

(* The existing fuzz generator (Test_properties.gen_value) covers nested
   lists/maps, nodes and relationships; storage additionally must handle
   temporal values, float edge cases, empty strings and paths. *)
let gen_temporal : Value.temporal Q.Gen.t =
  let open Q.Gen in
  oneof
    [
      map (fun d -> Value.Date d) (int_range (-100_000) 100_000);
      map (fun ns -> Value.Local_time (Int64.of_int ns)) (int_bound 86_399_999);
      map2
        (fun ns off -> Value.Time (Int64.of_int ns, off))
        (int_bound 86_399_999)
        (int_range (-64800) 64800);
      map2
        (fun d ns -> Value.Local_datetime (d, Int64.of_int ns))
        (int_range (-100_000) 100_000)
        (int_bound 86_399_999);
      map3
        (fun d ns off -> Value.Datetime (d, Int64.of_int ns, off))
        (int_range (-100_000) 100_000)
        (int_bound 86_399_999)
        (int_range (-64800) 64800);
      map3
        (fun months days nanos ->
          Value.Duration { months; days; nanos = Int64.of_int nanos })
        (int_range (-1000) 1000) (int_range (-10000) 10000)
        (int_range (-1_000_000) 1_000_000);
    ]

let gen_path : Value.path Q.Gen.t =
  let open Q.Gen in
  map2
    (fun start steps ->
      {
        Value.path_start = Ids.node_of_int start;
        path_steps =
          List.map
            (fun (r, n) -> (Ids.rel_of_int r, Ids.node_of_int n))
            steps;
      })
    (int_range 1 50)
    (list_size (int_bound 5) (pair (int_range 1 50) (int_range 1 50)))

let edge_values =
  [
    Value.Float Float.nan;
    Value.Float Float.infinity;
    Value.Float Float.neg_infinity;
    Value.Float (-0.);
    Value.Float Float.min_float;
    Value.Int max_int;
    Value.Int min_int;
    Value.String "";
    Value.String "a;b\"c\nd\x00e";
    Value.List [];
    Value.Map Value.Smap.empty;
    Value.List [ Value.List [ Value.List [ Value.Null ] ] ];
  ]

let gen_storage_value : Value.t Q.Gen.t =
  let open Q.Gen in
  frequency
    [
      (5, Test_properties.gen_value);
      (2, map (fun t -> Value.Temporal t) gen_temporal);
      (1, map (fun p -> Value.Path p) gen_path);
      (1, oneofl edge_values);
    ]

let arb_storage_value = Q.make ~print:Value.to_string gen_storage_value

(* Bit-exact equality: equal_total conflates 1 and 1.0 and orders NaNs,
   so compare floats by their IEEE bits and everything else by
   constructor and structure. *)
let rec bit_equal a b =
  match (a, b) with
  | Value.Null, Value.Null -> true
  | Value.Bool x, Value.Bool y -> x = y
  | Value.Int x, Value.Int y -> x = y
  | Value.Float x, Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.String x, Value.String y -> String.equal x y
  | Value.List xs, Value.List ys ->
    List.length xs = List.length ys && List.for_all2 bit_equal xs ys
  | Value.Map mx, Value.Map my -> Value.Smap.equal bit_equal mx my
  | Value.Node x, Value.Node y -> Ids.equal_node x y
  | Value.Rel x, Value.Rel y -> Ids.equal_rel x y
  | Value.Path p, Value.Path q ->
    (* identifiers are integers underneath: structural equality is exact *)
    p = q
  | Value.Temporal x, Value.Temporal y -> x = y
  | _ -> false

let t_codec_roundtrip =
  Q.Test.make ~name:"codec round-trips every value bit-exactly" ~count:1000
    arb_storage_value (fun v ->
      match Codec.decode_value (Codec.encode_value v) with
      | Ok v' -> bit_equal v v'
      | Error e -> Q.Test.fail_reportf "decode failed on %s: %s" (Value.to_string v) e)

let t_codec_rejects_truncation =
  Q.Test.make ~name:"codec rejects every proper prefix" ~count:200
    arb_storage_value (fun v ->
      let s = Codec.encode_value v in
      (* A proper prefix must never silently decode to a full value: it
         either errors or (for nested truncation ambiguity) cannot equal
         the original encoding length. *)
      String.length s = 0
      || (match Codec.decode_value (String.sub s 0 (String.length s - 1)) with
         | Error _ -> true
         | Ok _ -> false))

let codec_edge_cases () =
  List.iter
    (fun v ->
      match Codec.decode_value (Codec.encode_value v) with
      | Ok v' ->
        if not (bit_equal v v') then
          Alcotest.failf "%s round-tripped to %s" (Value.to_string v)
            (Value.to_string v')
      | Error e -> Alcotest.failf "%s failed to decode: %s" (Value.to_string v) e)
    edge_values

let codec_garbage () =
  (match Codec.decode_value "\xff\xff\xff" with
  | Ok _ -> Alcotest.fail "unknown tag decoded"
  | Error _ -> ());
  match Codec.decode_value "" with
  | Ok _ -> Alcotest.fail "empty input decoded"
  | Error _ -> ()

let crc32_known () =
  (* standard test vector: CRC-32("123456789") = 0xCBF43926 *)
  Alcotest.(check int)
    "crc32 test vector" 0xCBF43926
    (Crc32.digest "123456789");
  Alcotest.(check int) "crc32 of empty" 0 (Crc32.digest "")

(* --- snapshots --------------------------------------------------------- *)

let corpus () =
  [
    ("empty", Graph.empty);
    ("academic", Paper_graphs.academic ());
    ("teachers", Paper_graphs.teachers ());
    ("social", Generate.social ~seed:3 ~people:40 ~avg_friends:5);
    ( "fraud",
      Generate.fraud ~seed:5 ~holders:12 ~identifiers:20 ~ring_fraction:0.3 );
    ( "uniform",
      Generate.random_uniform ~seed:11 ~nodes:25 ~rels:60
        ~rel_types:[ "A"; "B" ] ~labels:[ "X"; "Y" ] );
  ]

let snapshot_roundtrip () =
  List.iter
    (fun (name, g) ->
      let path = fresh_path ".snap" in
      Snapshot.save g path;
      match Snapshot.load path with
      | Error e -> Alcotest.failf "%s: load failed: %s" name e
      | Ok g' ->
        if not (Graph.equal_structure g g') then
          Alcotest.failf "%s: snapshot is not the identity" name;
        Alcotest.(check (list int))
          (name ^ ": node ids preserved")
          (List.map Ids.node_to_int (Graph.nodes g))
          (List.map Ids.node_to_int (Graph.nodes g'));
        Alcotest.(check (list int))
          (name ^ ": rel ids preserved")
          (List.map Ids.rel_to_int (Graph.rels g))
          (List.map Ids.rel_to_int (Graph.rels g'));
        let nn, nr = Graph.next_ids g and nn', nr' = Graph.next_ids g' in
        if nn' < nn || nr' < nr then
          Alcotest.failf "%s: allocation watermarks went backwards" name;
        Sys.remove path)
    (corpus ())

let snapshot_preserves_indexes_and_gaps () =
  (* deletions leave id gaps; the snapshot must keep the watermarks so a
     reloaded graph never reuses a persisted id *)
  let g = Generate.social ~seed:9 ~people:10 ~avg_friends:3 in
  let g = Graph.create_index g ~label:"Person" ~key:"name" in
  let highest = List.hd (List.rev (Graph.nodes g)) in
  let g = Graph.detach_delete_node g highest in
  let path = fresh_path ".snap" in
  Snapshot.save g path;
  let g' =
    match Snapshot.load path with
    | Ok g' -> g'
    | Error e -> Alcotest.failf "load failed: %s" e
  in
  Sys.remove path;
  if not (Graph.has_index g' ~label:"Person" ~key:"name") then
    Alcotest.fail "property index lost in the snapshot";
  (* index works: seek a person by the name of a surviving node *)
  let some_node = List.hd (Graph.nodes g') in
  let some_name = Graph.node_prop g' some_node "name" in
  (match Graph.index_seek g' ~label:"Person" ~key:"name" some_name with
  | _ :: _ -> ()
  | [] -> Alcotest.fail "rebuilt index finds nothing");
  let g2, fresh = Graph.add_node g' ~labels:[ "Person" ] in
  ignore g2;
  if Ids.node_to_int fresh <= Ids.node_to_int highest then
    Alcotest.failf "fresh id n%d collides with the deleted persisted id n%d"
      (Ids.node_to_int fresh) (Ids.node_to_int highest);
  (* the loaded graph carries a fresh version so cached plans replan *)
  if Graph.version g' = Graph.version g then
    Alcotest.fail "loaded graph did not get a fresh version"

let snapshot_rejects_corruption () =
  let g = Paper_graphs.academic () in
  let path = fresh_path ".snap" in
  Snapshot.save g path;
  let data = read_file path in
  (* flip one byte in the middle of the body *)
  let broken = Bytes.of_string data in
  let mid = String.length data / 2 in
  Bytes.set broken mid (Char.chr (Char.code (Bytes.get broken mid) lxor 0x40));
  write_file path (Bytes.to_string broken);
  (match Snapshot.load path with
  | Ok _ -> Alcotest.fail "corrupt snapshot loaded"
  | Error e ->
    if not (String.length e > 0) then Alcotest.fail "empty error message");
  (* truncated file *)
  write_file path (String.sub data 0 (String.length data / 2));
  (match Snapshot.load path with
  | Ok _ -> Alcotest.fail "truncated snapshot loaded"
  | Error _ -> ());
  (* wrong magic *)
  write_file path ("NOTSNAP" ^ data);
  (match Snapshot.load path with
  | Ok _ -> Alcotest.fail "bad-magic snapshot loaded"
  | Error _ -> ());
  Sys.remove path

(* --- change records and the WAL ----------------------------------------- *)

let step g q =
  match Engine.query g q with
  | Ok o -> o.Engine.graph
  | Error e -> Alcotest.failf "%s failed: %s" q (Engine.error_message e)

let change base g =
  Snapshot.encode_change ~base g (Graph.delta_between ~since:base g)

(* Three commits' records: (traces, change), one traced twice. *)
let sample_records () =
  let g1 = step Graph.empty "CREATE (:Person {name: 'Ada'})" in
  let g2 = step g1 "MATCH (n:Person) SET n.seen = true" in
  let g3 = step g2 "CREATE (:Event {tags: ['', 3, 0.5]})" in
  [ ([ 0x1a2b3c ], change Graph.empty g1); ([], change g1 g2);
    ([ 7; max_int ], change g2 g3) ]

(* Every node's relationships in enumeration order: equal lists mean
   equal shortestPath tie-breaks and row orders. *)
let adjacency g =
  List.map
    (fun n ->
      let acc = ref [] in
      Graph.iter_adjacent g n `Both Graph.any_type (fun r m _ ->
          acc := (Ids.rel_to_int r, Ids.node_to_int m) :: !acc);
      (Ids.node_to_int n, List.rev !acc))
    (Graph.nodes g)

let check_same_graph msg expected actual =
  if not (Graph.equal_structure expected actual) then
    Alcotest.failf "%s: the graphs differ" msg;
  Alcotest.(check (list (pair int (list (pair int int)))))
    (msg ^ ": adjacency order") (adjacency expected) (adjacency actual);
  Alcotest.(check (pair int int))
    (msg ^ ": id watermarks") (Graph.next_ids expected) (Graph.next_ids actual);
  Alcotest.(check (list (pair string string)))
    (msg ^ ": indexes") (Graph.indexes expected) (Graph.indexes actual)

let wal_roundtrip () =
  let path = fresh_path ".wal" in
  let records = sample_records () in
  let w = Wal.open_writer path in
  let framed = Wal.append w records in
  Alcotest.(check (list int)) "seqs" [ 1; 2; 3 ] (List.map fst framed);
  Wal.close_writer w;
  (* reopen for append, continuing the sequence *)
  let w = Wal.open_writer ~next_seq:4 path in
  let more = Wal.append w [ ([], change Graph.empty Graph.empty) ] in
  Alcotest.(check (list int)) "seq continues" [ 4 ] (List.map fst more);
  Wal.close_writer w;
  match Wal.scan path with
  | Error e -> Alcotest.failf "scan failed: %s" e
  | Ok scan ->
    Alcotest.(check bool) "not torn" false scan.Wal.torn;
    Alcotest.(check (list int))
      "sequence numbers" [ 1; 2; 3; 4 ]
      (List.map (fun r -> r.Wal.seq) scan.Wal.records);
    List.iteri
      (fun i (traces, change) ->
        let r = List.nth scan.Wal.records i in
        Alcotest.(check (list int)) "traces" traces r.Wal.traces;
        Alcotest.(check string) "change bytes" change r.Wal.change)
      records;
    (* the framed bytes a primary ships decode to the same records *)
    List.iter2
      (fun (_, bytes) r ->
        match Wal.decode_framed bytes with
        | Ok r' -> Alcotest.(check bool) "framed record" true (r = r')
        | Error e -> Alcotest.failf "framed decode: %s" e)
      (framed @ more) scan.Wal.records;
    Sys.remove path

(* A base graph, and one commit from it that touches every delta field:
   nodes added, changed (label and property) and removed, relationships
   added (a loop among them), changed and removed, an index created and
   one dropped, and a node created and deleted, which leaves an id
   gap. *)
let delta_base () =
  List.fold_left step Graph.empty
    [
      "CREATE (a:P {v: 1})-[:R {w: 1}]->(b:P {v: 2})-[:R {w: 2}]->(c:Q {v: 3}), \
       (a)-[:S]->(c), (c)-[:R]->(c), (c)-[:R {w: 4}]->(a)";
      "CREATE (:Gone {v: 4})-[:R]->(:Kept {v: 5})";
      "CREATE INDEX ON :P(v)";
    ]

let delta_commit base =
  List.fold_left step base
    [
      "MATCH (n:P {v: 1}) SET n.x = 'changed' REMOVE n:P SET n:Q";
      "MATCH (:P {v: 2})-[r:R]->() SET r.w = 20";
      "MATCH (n:Gone) DETACH DELETE n";
      "MATCH ()-[r:S]->() DELETE r";
      "MATCH (c:Q {v: 3}) CREATE (c)-[:R {w: 6}]->(t:New {v: 6})-[:R]->(t), \
       (t)-[:R]->(c)";
      "CREATE (g:Gap) DELETE g";
      "CREATE INDEX ON :Q(v)";
      "DROP INDEX ON :P(v)";
    ]

let change_records_cover_every_field () =
  let base = delta_base () in
  let target = delta_commit base in
  let delta =
    match Graph.delta_between ~since:base target with
    | Some d -> d
    | None -> Alcotest.fail "no delta across one commit"
  in
  List.iter
    (fun (field, ids) ->
      if ids = 0 then Alcotest.failf "the commit leaves %s empty" field)
    [
      ("nodes added", List.length delta.Graph.d_nodes_added);
      ("nodes changed", List.length delta.Graph.d_nodes_changed);
      ("nodes removed", List.length delta.Graph.d_nodes_removed);
      ("rels added", List.length delta.Graph.d_rels_added);
      ("rels changed", List.length delta.Graph.d_rels_changed);
      ("rels removed", List.length delta.Graph.d_rels_removed);
    ];
  (* through the log: appended, fsync'd and scanned back *)
  let path = fresh_path ".wal" in
  let w = Wal.open_writer path in
  ignore
    (Wal.append w
       [
         ([ 1 ], Snapshot.encode_change ~base target (Some delta));
         ([], Snapshot.encode_change ~base target None);
       ]);
  Wal.close_writer w;
  let delta_record, whole_record =
    match Wal.scan path with
    | Ok { Wal.records = [ a; b ]; _ } -> (a.Wal.change, b.Wal.change)
    | Ok _ -> Alcotest.fail "expected two records"
    | Error e -> Alcotest.failf "scan failed: %s" e
  in
  Sys.remove path;
  let applied what base change =
    match Snapshot.apply_change base change with
    | Ok g -> g
    | Error e -> Alcotest.failf "%s does not apply: %s" what e
  in
  check_same_graph "delta record" target (applied "delta record" base delta_record);
  (* a whole-graph record starts from the empty graph, whatever it is
     applied to *)
  check_same_graph "whole-graph record" target
    (applied "whole-graph record" base whole_record);
  check_same_graph "whole-graph record on empty" target
    (applied "whole-graph record" Graph.empty whole_record);
  (* the id gap survives: the next node gets the primary's next id *)
  Alcotest.(check int) "next node id"
    (Ids.node_to_int (snd (Graph.add_node target)))
    (Ids.node_to_int
       (snd (Graph.add_node (applied "delta record" base delta_record))));
  (* a change applied to a state it does not belong to is refused *)
  match Snapshot.apply_change Graph.empty delta_record with
  | Ok _ -> Alcotest.fail "a change applied to a graph missing its ids"
  | Error e ->
    Alcotest.(check bool) "names the absent id" true
      (Re.execp (Re.compile (Re.str "is absent")) e)

let wal_torn_tail () =
  let path = fresh_path ".wal" in
  let w = Wal.open_writer path in
  ignore (Wal.append w (sample_records ()));
  Wal.close_writer w;
  let data = read_file path in
  (* record boundaries, to know where record 2 ends *)
  let boundary =
    match Wal.scan path with
    | Ok scan ->
      ignore scan;
      (* recompute by scanning prefix lengths: drop the last record's
         bytes progressively instead — cut 3 bytes off the end *)
      String.length data - 3
    | Error e -> Alcotest.failf "scan failed: %s" e
  in
  write_file path (String.sub data 0 boundary);
  (match Wal.scan path with
  | Error e -> Alcotest.failf "torn tail must recover, got: %s" e
  | Ok scan ->
    Alcotest.(check bool) "torn" true scan.Wal.torn;
    Alcotest.(check int) "stops at last valid record" 2
      (List.length scan.Wal.records));
  (* cut into the length prologue of record 2 as well *)
  let after_one =
    match Wal.scan path with
    | Ok scan -> scan.Wal.valid_len
    | Error e -> Alcotest.failf "scan failed: %s" e
  in
  (* after_one is the end of record 2 in the truncated file? No: torn
     scan reports valid_len = end of record 2; cut 1 byte into it. *)
  write_file path (String.sub data 0 (after_one - 1));
  (match Wal.scan path with
  | Error e -> Alcotest.failf "torn tail must recover, got: %s" e
  | Ok scan ->
    Alcotest.(check bool) "torn" true scan.Wal.torn;
    Alcotest.(check int) "one fewer valid record" 1
      (List.length scan.Wal.records));
  Sys.remove path

let wal_corrupt_interior () =
  let path = fresh_path ".wal" in
  let w = Wal.open_writer path in
  ignore (Wal.append w (sample_records ()));
  Wal.close_writer w;
  let data = read_file path in
  (* flip a byte inside the first record's payload: a complete record
     with a bad CRC is corruption and must refuse, not silently drop *)
  let broken = Bytes.of_string data in
  Bytes.set broken 20 (Char.chr (Char.code (Bytes.get broken 20) lxor 0x01));
  write_file path (Bytes.to_string broken);
  (match Wal.scan path with
  | Ok _ -> Alcotest.fail "corrupt interior scanned successfully"
  | Error e ->
    if not (String.length e > 0) then Alcotest.fail "empty error");
  Sys.remove path

(* --- the store: kill-and-recover --------------------------------------- *)

let probe = "MATCH (n) RETURN labels(n) AS ls, n.name AS name, n.v AS v"

let table_of store =
  match Store.run store probe with
  | Ok t -> t
  | Error e -> Alcotest.failf "probe failed: %s" (Engine.error_message e)

let must_run store q =
  match Store.run store q with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s failed: %s" q (Engine.error_message e)

let must_open ?mode dir =
  match Store.open_ ?mode dir with
  | Ok s -> s
  | Error e -> Alcotest.failf "open %s failed: %s" dir e

let store_recovers_after_kill () =
  let dir = fresh_dir () in
  let a = must_open dir in
  must_run a "CREATE (:Person {name: 'Ada', v: 1})";
  must_run a "CREATE (:Person {name: 'Alan', v: 2})";
  must_run a "MATCH (p {name: 'Ada'}) SET p.v = 10";
  let expected = table_of a in
  (* kill: no close, no checkpoint — the WAL alone carries the state *)
  let b = must_open dir in
  check_table_bag "recovered state equals the uninterrupted session" expected
    (table_of b);
  Store.close b;
  Store.close a

let store_recovery_matches_uninterrupted () =
  (* the acceptance criterion, on a generated statement mix: a session
     killed after N committed statements recovers to the same results *)
  let statements =
    [
      "CREATE (:L0 {v: 0})";
      "CREATE (:L1 {v: 1})";
      "CREATE (:L2 {v: 2})";
      "MATCH (a:L0), (b:L1) CREATE (a)-[:T {w: 7}]->(b)";
      "MERGE (:M {k: 1})";
      "MATCH (n:L1) SET n.v = n.v + 10";
      "MATCH (n:L2) REMOVE n.v SET n:Seen";
      "MATCH (a:L0)-[r:T]->(b) SET r.w = r.w * 2";
    ]
  in
  let dir = fresh_dir () in
  let st = must_open dir in
  List.iter (must_run st) statements;
  (* the uninterrupted baseline: the same statements straight through
     the engine *)
  let baseline =
    List.fold_left
      (fun g q ->
        match Cypher_engine.Engine.query g q with
        | Ok o -> o.Cypher_engine.Engine.graph
        | Error e -> Alcotest.failf "%s failed: %s" q (Engine.error_message e))
      Graph.empty statements
  in
  let recovered = must_open dir in
  if not (Graph.equal_structure baseline (Store.graph recovered)) then
    Alcotest.fail "recovered graph differs from the uninterrupted one";
  Store.close recovered;
  Store.close st

let store_transactions () =
  let dir = fresh_dir () in
  let st = must_open dir in
  let s = Store.session st in
  Session.begin_tx s;
  must_run st "CREATE (:Committed {v: 1})";
  must_run st "CREATE (:Committed {v: 2})";
  (match Session.commit s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "commit failed: %s" (Engine.error_message e));
  Session.begin_tx s;
  must_run st "CREATE (:RolledBack)";
  (match Session.rollback s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rollback failed: %s" (Engine.error_message e));
  Alcotest.(check int) "only the committed transaction reaches the WAL, as one record" 1
    (Store.wal_records st);
  let recovered = must_open dir in
  expect_bag (Store.graph recovered)
    "MATCH (n) RETURN count(n) AS c, count(n.v) AS vs" [ "c"; "vs" ]
    [ [ ("c", vint 2); ("vs", vint 2) ] ];
  Store.close recovered;
  Store.close st

let store_nested_transactions () =
  let dir = fresh_dir () in
  let st = must_open dir in
  let s = Store.session st in
  Session.begin_tx s;
  must_run st "CREATE (:Outer)";
  Session.begin_tx s;
  must_run st "CREATE (:InnerKept)";
  ok_or_fail (Session.commit s);
  Session.begin_tx s;
  must_run st "CREATE (:InnerDropped)";
  ok_or_fail (Session.rollback s);
  (* nothing is durable until the outermost commit *)
  Alcotest.(check int) "no WAL records before outermost commit" 0
    (Store.wal_records st);
  ok_or_fail (Session.commit s);
  Alcotest.(check int) "one record for outer + inner-committed statements" 1
    (Store.wal_records st);
  let recovered = must_open dir in
  expect_bag (Store.graph recovered)
    "MATCH (n) UNWIND labels(n) AS l RETURN l ORDER BY l" [ "l" ]
    [ [ ("l", vstr "InnerKept") ]; [ ("l", vstr "Outer") ] ];
  Store.close recovered;
  Store.close st

let store_checkpoint () =
  let dir = fresh_dir () in
  let st = must_open dir in
  must_run st "CREATE (:A {v: 1})";
  must_run st "CREATE (:B {v: 2})";
  (match Store.checkpoint st with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checkpoint failed: %s" e);
  Alcotest.(check int) "WAL truncated" 0 (Store.wal_records st);
  must_run st "CREATE (:C {v: 3})";
  let expected = table_of st in
  let recovered = must_open dir in
  Alcotest.(check int) "only post-checkpoint records replayed" 1
    (Store.wal_records recovered);
  check_table_bag "snapshot + WAL tail equals the full history" expected
    (table_of recovered);
  Store.close recovered;
  Store.close st

let store_checkpoint_crash_window () =
  (* a crash between snapshot-write and WAL-truncate leaves the full WAL
     beside a snapshot that already contains it; the last_seq watermark
     must prevent double-apply *)
  let dir = fresh_dir () in
  let st = must_open dir in
  must_run st "CREATE (:P {v: 1})";
  must_run st "MATCH (n:P) SET n.v = n.v + 1";
  let wal_before = read_file (Store.wal_file dir) in
  let expected = table_of st in
  (match Store.checkpoint st with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checkpoint failed: %s" e);
  Store.close st;
  (* simulate the torn checkpoint: restore the pre-checkpoint WAL *)
  write_file (Store.wal_file dir) wal_before;
  let recovered = must_open dir in
  Alcotest.(check int) "stale records skipped, not replayed" 0
    (Store.wal_records recovered);
  check_table_bag "no double-apply after a torn checkpoint" expected
    (table_of recovered);
  (* SET n.v = n.v + 1 replayed twice would have shown v = 3 *)
  expect_bag (Store.graph recovered) "MATCH (n:P) RETURN n.v AS v" [ "v" ]
    [ [ ("v", vint 2) ] ];
  Store.close recovered

let store_refuses_corrupt_wal () =
  let dir = fresh_dir () in
  let st = must_open dir in
  must_run st "CREATE (:A)";
  must_run st "CREATE (:B)";
  Store.close st;
  let wal = Store.wal_file dir in
  let data = read_file wal in
  let broken = Bytes.of_string data in
  Bytes.set broken 12 (Char.chr (Char.code (Bytes.get broken 12) lxor 0x10));
  write_file wal (Bytes.to_string broken);
  match Store.open_ dir with
  | Ok _ -> Alcotest.fail "store opened over a corrupt WAL interior"
  | Error e ->
    if not (String.length e > 0) then Alcotest.fail "empty error message"

let store_drops_torn_tail () =
  let dir = fresh_dir () in
  let st = must_open dir in
  must_run st "CREATE (:Kept {v: 1})";
  must_run st "CREATE (:Torn {v: 2})";
  Store.close st;
  let wal = Store.wal_file dir in
  let data = read_file wal in
  write_file wal (String.sub data 0 (String.length data - 5));
  let recovered = must_open dir in
  expect_bag (Store.graph recovered)
    "MATCH (n) UNWIND labels(n) AS l RETURN l" [ "l" ]
    [ [ ("l", vstr "Kept") ] ];
  (* the torn bytes were truncated away: appending now keeps the log scannable *)
  must_run recovered "CREATE (:After)";
  Store.close recovered;
  let again = must_open dir in
  expect_bag (Store.graph again)
    "MATCH (n) UNWIND labels(n) AS l RETURN l ORDER BY l" [ "l" ]
    [ [ ("l", vstr "After") ]; [ ("l", vstr "Kept") ] ];
  Store.close again

let store_durable_params () =
  (* parameters are serialized with the statement and survive reopen *)
  let dir = fresh_dir () in
  let st = must_open dir in
  let s = Store.session st in
  Session.set_params s
    [ ("name", vstr "Grace"); ("tags", vlist [ vint 1; vnull; vstr "x" ]) ];
  (match Session.run s "CREATE (:P {name: $name, tags: $tags})" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "run failed: %s" (Engine.error_message e));
  let recovered = must_open dir in
  expect_bag (Store.graph recovered)
    "MATCH (p:P) RETURN p.name AS name, p.tags AS tags" [ "name"; "tags" ]
    [ [ ("name", vstr "Grace"); ("tags", vlist [ vint 1; vnull; vstr "x" ]) ] ];
  Store.close recovered;
  Store.close st

let store_index_ddl_durable () =
  let dir = fresh_dir () in
  let st = must_open dir in
  must_run st "CREATE (:P {k: 1})";
  must_run st "CREATE INDEX ON :P(k)";
  Store.close st;
  let recovered = must_open dir in
  if not (Graph.has_index (Store.graph recovered) ~label:"P" ~key:"k") then
    Alcotest.fail "CREATE INDEX did not survive recovery";
  (match Store.checkpoint recovered with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checkpoint failed: %s" e);
  Store.close recovered;
  let again = must_open dir in
  if not (Graph.has_index (Store.graph again) ~label:"P" ~key:"k") then
    Alcotest.fail "index lost through the snapshot";
  Store.close again

(* --- recovery applies changes ------------------------------------------- *)

let old_wal_header version = "CYWAL" ^ String.make 1 (Char.chr version) ^ "\000"

let wal_upgrade () =
  List.iter
    (fun version ->
      (* a header-only log of an older version — what a clean shutdown,
         which checkpoints, leaves — is rewritten with the new header *)
      let dir = fresh_dir () in
      write_file (Store.wal_file dir) (old_wal_header version);
      let st = must_open dir in
      Alcotest.(check string) "rewritten header" (old_wal_header 3)
        (read_file (Store.wal_file dir));
      must_run st "CREATE (:After)";
      Store.close st;
      let again = must_open dir in
      expect_bag (Store.graph again) "MATCH (n:After) RETURN count(n) AS c"
        [ "c" ] [ [ ("c", vint 1) ] ];
      Store.close again;
      (* an older log that still holds records is refused, untouched *)
      let dir = fresh_dir () in
      let old_log =
        old_wal_header version ^ "\x09\x00\x00\x00\x00\x00\x00\x00CREATE ()"
      in
      write_file (Store.wal_file dir) old_log;
      (match Store.open_ dir with
      | Ok _ -> Alcotest.failf "opened a version-%d log with records" version
      | Error e ->
        Alcotest.(check bool) "says how to upgrade" true
          (Re.execp (Re.compile (Re.str "previous binary and checkpoint")) e));
      Alcotest.(check string) "the old log is left as it was" old_log
        (read_file (Store.wal_file dir)))
    [ 1; 2 ]

(* A workload with a relationship property SET, a label REMOVE, DETACH
   DELETE, index DDL, and a transaction that creates and deletes a node:
   the recovered graph is the primary's, adjacency order and the next
   allocated id included. *)
let recovery_equals_primary () =
  let dir = fresh_dir () in
  let st = must_open dir in
  List.iter (must_run st)
    [
      "CREATE (a:P {k: 1})-[:R {w: 1}]->(b:P {k: 2})-[:R {w: 2}]->(c:P {k: 3}), \
       (c)-[:R {w: 3}]->(a), (a)-[:R {w: 4}]->(c), (b)-[:S]->(b)";
      "MATCH (:P {k: 1})-[r:R {w: 1}]->() SET r.w = 10";
      "MATCH (n:P {k: 2}) REMOVE n:P SET n:Q";
      "CREATE INDEX ON :P(k)";
      "MATCH (a:P {k: 1}), (c:P {k: 3}) CREATE (c)-[:R {w: 5}]->(a), (a)-[:T]->(a)";
      "MATCH (n:P {k: 3}) DETACH DELETE n";
      "CREATE (:P {k: 4})-[:R]->(:P {k: 5})";
      "DROP INDEX ON :P(k)";
      "CREATE INDEX ON :Q(k)";
    ];
  let s = Store.session st in
  Session.begin_tx s;
  must_run st "CREATE (:Gap)";
  must_run st "MATCH (g:Gap) DELETE g";
  ok_or_fail (Session.commit s);
  let primary = Store.graph st in
  Store.close st;
  let recovered = must_open dir in
  check_same_graph "recovered" primary (Store.graph recovered);
  (* the next CREATE gets the id the primary would allocate *)
  must_run recovered "CREATE (:Next)";
  expect_bag (Store.graph recovered) "MATCH (n:Next) RETURN id(n) AS id" [ "id" ]
    [ [ ("id", vint (Ids.node_to_int (snd (Graph.add_node primary)))) ] ];
  Store.close recovered

(* A commit past two journal resets has no delta: its record is the
   whole graph, applied from the empty graph, between delta records. *)
let recovery_of_a_whole_graph_record () =
  let dir = fresh_dir () in
  let st = must_open dir in
  must_run st
    "CREATE (a:Before {k: 1})-[:R]->(b:Before {k: 2}), (b)-[:R]->(a), (a)-[:R]->(a)";
  must_run st "UNWIND range(1, 140000) AS i CREATE (:Bulk {i: i})";
  must_run st "MATCH (a:Before {k: 1}), (b:Bulk {i: 1}) CREATE (a)-[:R]->(b)";
  must_run st "MATCH (b:Before {k: 2}) DETACH DELETE b";
  let primary = Store.graph st in
  Store.close st;
  (match Wal.scan (Store.wal_file dir) with
  | Ok { Wal.records = [ _; bulk; _; _ ]; _ } ->
    (* the change's first byte says whether it applies to the empty graph *)
    Alcotest.(check char) "the bulk commit logs the whole graph" '\001'
      bulk.Wal.change.[0]
  | Ok _ -> Alcotest.fail "expected four records"
  | Error e -> Alcotest.failf "scan failed: %s" e);
  let recovered = must_open dir in
  check_same_graph "recovered" primary (Store.graph recovered);
  Store.close recovered

(* Replay costs O(changes): the same update logs the same bytes, and
   encoding and applying them reads the store as often, on a 1k and a
   20k node graph; recovery gives the primary's graph. *)
let replay_costs_o_changes () =
  let logged nodes =
    let dir = fresh_dir () in
    let st = must_open dir in
    must_run st (Printf.sprintf "UNWIND range(1, %d) AS i CREATE (:P {v: i})" nodes);
    let base = Store.graph st in
    must_run st "MATCH (n:P) WHERE n.v = 7 SET n.w = 1";
    let primary = Store.graph st in
    Store.close st;
    let _, hits =
      Graph.with_db_hit_counting (fun () ->
          Graph.own_db_hits (fun () ->
              Snapshot.apply_change base (change base primary)))
    in
    let recovered = must_open dir in
    check_same_graph (Printf.sprintf "%d nodes" nodes) primary
      (Store.graph recovered);
    Store.close recovered;
    match Wal.scan (Store.wal_file dir) with
    | Ok { Wal.records = [ _; update ]; _ } -> (String.length update.Wal.change, hits)
    | Ok _ -> Alcotest.fail "expected two records"
    | Error e -> Alcotest.failf "scan failed: %s" e
  in
  Alcotest.(check (pair int int))
    "record bytes and store reads on 1k and 20k nodes" (logged 1_000)
    (logged 20_000)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [
    qtest t_codec_roundtrip;
    qtest t_codec_rejects_truncation;
    tc "codec round-trips NaN, infinities, empty containers" codec_edge_cases;
    tc "codec rejects garbage input" codec_garbage;
    tc "crc32 matches the standard test vector" crc32_known;
    tc "snapshots round-trip the whole corpus with identical ids"
      snapshot_roundtrip;
    tc "snapshots keep indexes and id watermarks across gaps"
      snapshot_preserves_indexes_and_gaps;
    tc "snapshots reject corruption, truncation and bad magic"
      snapshot_rejects_corruption;
    tc "WAL records round-trip traces and changes" wal_roundtrip;
    tc "WAL recovery stops at the last valid record (torn tail)" wal_torn_tail;
    tc "WAL refuses a corrupt interior" wal_corrupt_interior;
    tc "change records round-trip every delta field"
      change_records_cover_every_field;
    tc "store recovers committed statements after a kill"
      store_recovers_after_kill;
    tc "recovered graph equals an uninterrupted session"
      store_recovery_matches_uninterrupted;
    tc "rolled-back transactions never reach the log" store_transactions;
    tc "nested transactions log at the outermost commit"
      store_nested_transactions;
    tc "checkpoint truncates the WAL and keeps the state" store_checkpoint;
    tc "a torn checkpoint never double-applies the WAL"
      store_checkpoint_crash_window;
    tc "store refuses a corrupt WAL interior" store_refuses_corrupt_wal;
    tc "store drops a torn WAL tail and stays appendable" store_drops_torn_tail;
    tc "parameters are durable alongside their statements" store_durable_params;
    tc "index DDL is durable through WAL and snapshot" store_index_ddl_durable;
    tc "an old log is upgraded when empty, refused when not" wal_upgrade;
    tc "a recovered graph equals the primary's" recovery_equals_primary;
    tc "a commit past two journal resets recovers from a whole-graph record"
      recovery_of_a_whole_graph_record;
    tc "replay costs O(changes)" replay_costs_o_changes;
  ]

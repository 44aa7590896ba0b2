(* Tests for CALL ... YIELD procedures (db.* introspection and the
   algo.* algorithm procedures). *)

open Helpers
open Cypher_gen

let labels_procedure () =
  let g = Paper_graphs.academic () in
  expect_bag g "CALL db.labels() YIELD label RETURN label"
    [ "label" ]
    [
      [ ("label", vstr "Publication") ];
      [ ("label", vstr "Researcher") ];
      [ ("label", vstr "Student") ];
    ]

let relationship_types () =
  let g = Paper_graphs.academic () in
  expect_bag g
    "CALL db.relationshipTypes() YIELD relationshipType AS t RETURN t"
    [ "t" ]
    [
      [ ("t", vstr "AUTHORS") ];
      [ ("t", vstr "CITES") ];
      [ ("t", vstr "SUPERVISES") ];
    ]

let property_keys () =
  let g = Paper_graphs.academic () in
  expect_bag g "CALL db.propertyKeys() YIELD propertyKey AS k RETURN k"
    [ "k" ]
    [ [ ("k", vstr "acmid") ]; [ ("k", vstr "name") ] ]

let yield_subset_and_rename () =
  let g = Paper_graphs.teachers () in
  (* yield only one of the two columns, renamed *)
  let t = run g "CALL algo.wcc() YIELD component AS c RETURN DISTINCT c" in
  Alcotest.(check int) "one component" 1 (Cypher_table.Table.row_count t)

let call_joins_with_driving_rows () =
  let g = Paper_graphs.teachers () in
  (* the driving row's variable stays available next to yielded columns *)
  expect_bag g
    "MATCH (x:Student) CALL algo.bfs(x) YIELD node, distance \
     WHERE distance > 0 RETURN count(*) AS reachable"
    [ "reachable" ]
    [ [ ("reachable", vint 2) ] ]

let pagerank_via_call () =
  (* hub with incoming spokes: the hub has the top score *)
  let g = Cypher_graph.Graph.empty in
  let { Cypher_engine.Engine.graph = g; _ } =
    Cypher_engine.Engine.run_exn g
      "CREATE (hub:Hub), (:S)-[:T]->(hub), (:S)-[:T]->(hub), (:S)-[:T]->(hub)"
  in
  expect_bag g
    "CALL algo.pagerank() YIELD node, score \
     WITH node, score ORDER BY score DESC LIMIT 1 \
     RETURN labels(node) AS top"
    [ "top" ]
    [ [ ("top", vlist [ vstr "Hub" ]) ] ]

let triangle_count_via_call () =
  let g = Generate.clique ~n:4 ~rel_type:"T" in
  expect_bag g "CALL algo.triangleCount() YIELD triangles RETURN triangles"
    [ "triangles" ]
    [ [ ("triangles", vint 4) ] ]

let unknown_procedure_errors () =
  match Cypher_engine.Engine.query Cypher_graph.Graph.empty "CALL no.such.proc()" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e ->
    Alcotest.(check bool) "mentions the name" true
      (String.length (Cypher_engine.Engine.error_message e) > 0)

let unknown_yield_column_errors () =
  match
    Cypher_engine.Engine.query Cypher_graph.Graph.empty
      "CALL db.labels() YIELD nope RETURN nope"
  with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error _ -> ()

(* A planner refusal in a segment after a CALL must not run the CALL a
   second time: the whole query is prepared before any clause runs, so
   the refusal sends it to the reference evaluator before the procedure
   is ever called. *)
let late_refusal_calls_once () =
  let calls = ref 0 in
  Cypher_semantics.Procedures.register "test.bump" (fun _ _ ->
      incr calls;
      { Cypher_semantics.Procedures.columns = [ "v" ]; rows = [ [ vint 1 ] ] });
  let g =
    (Cypher_engine.Engine.run_exn Cypher_graph.Graph.empty
       "CREATE (:N)-[:R]->(:N)")
      .Cypher_engine.Engine.graph
  in
  List.iter
    (fun q ->
      calls := 0;
      (match Cypher_engine.Engine.query g q with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%S: %s" q
          (Cypher_engine.Engine.error_message e));
      Alcotest.(check int) (q ^ ": procedure calls") 1 !calls)
    [
      "CALL test.bump() YIELD v WITH v MATCH (a:N), (b:N) MATCH p = \
       shortestPath((a)-[:R*]-(b)) RETURN v, count(*) AS c";
      (* two shortest paths in one MATCH: the planner refuses the tuple *)
      "CALL test.bump() YIELD v WITH v MATCH (a:N), (b:N) MATCH p = \
       shortestPath((a)-[:R*]-(b)), q = shortestPath((b)-[:R*]-(a)) RETURN \
       v, count(*) AS c";
    ]

let call_roundtrips_through_printer () =
  let q = "MATCH (x) CALL algo.bfs(x) YIELD node, distance AS d RETURN d" in
  let printed =
    Cypher_ast.Pretty.query_to_string (Cypher_parser.Parser.parse_query_exn q)
  in
  let reprinted =
    Cypher_ast.Pretty.query_to_string (Cypher_parser.Parser.parse_query_exn printed)
  in
  Alcotest.(check string) "stable print" printed reprinted

let suite =
  [
    tc "db.labels" labels_procedure;
    tc "db.relationshipTypes with alias" relationship_types;
    tc "db.propertyKeys" property_keys;
    tc "YIELD subset and rename" yield_subset_and_rename;
    tc "CALL joins with driving rows" call_joins_with_driving_rows;
    tc "algo.pagerank through CALL" pagerank_via_call;
    tc "algo.triangleCount through CALL" triangle_count_via_call;
    tc "unknown procedure is an error" unknown_procedure_errors;
    tc "unknown YIELD column is an error" unknown_yield_column_errors;
    tc "CALL round-trips through the printer" call_roundtrips_through_printer;
    tc "a late planner refusal runs the CALL once" late_refusal_calls_once;
  ]

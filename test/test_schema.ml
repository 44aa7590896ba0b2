(* Tests for the schema-constraint layer (paper, Section 8). *)

open Helpers
module S = Cypher_schema.Schema
module Graph = Cypher_graph.Graph
module Engine = Cypher_engine.Engine

let graph_of queries =
  List.fold_left
    (fun g q -> (Engine.run_exn g q).Engine.graph)
    Graph.empty queries

let ddl_parsing () =
  let ok ddl expected =
    match S.parse_ddl ddl with
    | Ok c -> Alcotest.(check bool) ddl true (c = expected)
    | Error e -> Alcotest.fail e
  in
  ok "CREATE CONSTRAINT ON (p:Person) ASSERT exists(p.name)"
    (S.Node_property_exists { label = "Person"; key = "name" });
  ok "CREATE CONSTRAINT ON (p:Person) ASSERT p.ssn IS UNIQUE"
    (S.Node_property_unique { label = "Person"; key = "ssn" });
  ok "CREATE CONSTRAINT ON (p:Person) ASSERT p.age IS integer"
    (S.Node_property_type { label = "Person"; key = "age"; type_name = "INTEGER" });
  ok "CREATE CONSTRAINT ON ()-[k:KNOWS]-() ASSERT exists(k.since)"
    (S.Rel_property_exists { rel_type = "KNOWS"; key = "since" });
  (match S.parse_ddl "CREATE NONSENSE" with
  | Ok _ -> Alcotest.fail "expected parse failure"
  | Error _ -> ())

let existence () =
  let schema =
    S.(add (Node_property_exists { label = "Person"; key = "name" }) empty)
  in
  let good = graph_of [ "CREATE (:Person {name: 'a'}), (:Other)" ] in
  Alcotest.(check bool) "conforming graph" true (S.conforms schema good);
  let bad = graph_of [ "CREATE (:Person {name: 'a'}), (:Person)" ] in
  Alcotest.(check int) "one violation" 1 (List.length (S.check schema bad))

let uniqueness () =
  let schema =
    S.(add (Node_property_unique { label = "P"; key = "k" }) empty)
  in
  let good = graph_of [ "CREATE (:P {k: 1}), (:P {k: 2}), (:P)" ] in
  Alcotest.(check bool) "distinct or absent ok" true (S.conforms schema good);
  let bad = graph_of [ "CREATE (:P {k: 1}), (:P {k: 1})" ] in
  Alcotest.(check int) "duplicate reported" 1 (List.length (S.check schema bad));
  (* uniqueness respects numeric equality: 1 and 1.0 collide *)
  let bad2 = graph_of [ "CREATE (:P {k: 1}), (:P {k: 1.0})" ] in
  Alcotest.(check int) "1 vs 1.0 collide" 1 (List.length (S.check schema bad2))

let type_constraint () =
  let schema =
    S.(
      add (Node_property_type { label = "P"; key = "age"; type_name = "INTEGER" })
        empty)
  in
  let good = graph_of [ "CREATE (:P {age: 4}), (:P)" ] in
  Alcotest.(check bool) "integers ok" true (S.conforms schema good);
  let bad = graph_of [ "CREATE (:P {age: 'four'})" ] in
  Alcotest.(check bool) "string rejected" false (S.conforms schema bad)

let rel_existence () =
  let schema =
    S.(add (Rel_property_exists { rel_type = "KNOWS"; key = "since" }) empty)
  in
  let good = graph_of [ "CREATE ()-[:KNOWS {since: 1}]->()" ] in
  Alcotest.(check bool) "rel prop present" true (S.conforms schema good);
  let bad = graph_of [ "CREATE ()-[:KNOWS]->()" ] in
  Alcotest.(check bool) "rel prop missing" false (S.conforms schema bad)

let guarded_rollback () =
  let schema =
    match
      S.add_ddl "CREATE CONSTRAINT ON (p:Person) ASSERT p.ssn IS UNIQUE"
        S.empty
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let g = graph_of [ "CREATE (:Person {ssn: 1})" ] in
  (* a conforming update goes through *)
  (match S.guarded_query ~schema g "CREATE (:Person {ssn: 2})" with
  | Ok outcome ->
    Alcotest.(check int) "node added" 2
      (Graph.node_count outcome.Engine.graph)
  | Error e -> Alcotest.fail (Engine.error_message e));
  (* a violating update is rejected and does not modify the graph *)
  match S.guarded_query ~schema g "CREATE (:Person {ssn: 1})" with
  | Ok _ -> Alcotest.fail "expected the duplicate to be rejected"
  | Error msg ->
    Alcotest.(check bool) "message mentions the violation" true
      (Cypher_values.Value.type_name (Cypher_values.Value.Int 0) = "INTEGER"
      && String.length (Engine.error_message msg) > 0);
    Alcotest.(check int) "original graph untouched" 1 (Graph.node_count g)

let merge_under_schema () =
  (* the use case the paper mentions: MERGE-created entities stay unique
     when the database enforces a uniqueness constraint *)
  let schema =
    S.(add (Node_property_unique { label = "U"; key = "k" }) empty)
  in
  let g = Graph.empty in
  let step g q =
    match S.guarded_query ~schema g q with
    | Ok o -> o.Engine.graph
    | Error e -> Alcotest.fail (Engine.error_message e)
  in
  let g = step g "MERGE (n:U {k: 1})" in
  let g = step g "MERGE (n:U {k: 1})" in
  let g = step g "MERGE (n:U {k: 2})" in
  Alcotest.(check int) "merge kept entities unique" 2 (Graph.node_count g)

let suite =
  [
    tc "DDL parsing" ddl_parsing;
    tc "property existence" existence;
    tc "property uniqueness" uniqueness;
    tc "property type" type_constraint;
    tc "relationship property existence" rel_existence;
    tc "guarded query rolls back on violation" guarded_rollback;
    tc "MERGE under a uniqueness constraint" merge_under_schema;
  ]

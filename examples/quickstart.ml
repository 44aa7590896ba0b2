(* Quickstart: build a graph with Cypher, query it, inspect the plan.

   Run with:  dune exec examples/quickstart.exe *)

module Engine = Cypher_engine.Engine
module Graph = Cypher_graph.Graph
module Table = Cypher_table.Table

let () =
  (* 1. Start from the empty graph and create some data — the engine
        threads graph updates through the query. *)
  let setup =
    "CREATE (ada:Person {name: 'Ada', born: 1815}), \
            (alan:Person {name: 'Alan', born: 1912}), \
            (grace:Person {name: 'Grace', born: 1906}), \
            (ada)-[:KNOWS {since: 1830}]->(alan), \
            (alan)-[:KNOWS {since: 1940}]->(grace), \
            (ada)-[:KNOWS {since: 1840}]->(grace)"
  in
  let { Engine.graph; _ } = Engine.run_exn Graph.empty setup in
  Printf.printf "graph: %d nodes, %d relationships\n\n" (Graph.node_count graph)
    (Graph.rel_count graph);

  (* 2. Pattern matching with ASCII-art patterns. *)
  let friends =
    Engine.run graph
      "MATCH (a:Person)-[k:KNOWS]->(b:Person) \
       RETURN a.name AS a, b.name AS b, k.since AS since ORDER BY since"
  in
  Format.printf "Who knows whom:@.%a@.@." Table.pp friends;

  (* 3. Variable-length paths and aggregation. *)
  let reach =
    Engine.run graph
      "MATCH (a:Person {name: 'Ada'})-[:KNOWS*1..2]->(b) \
       RETURN b.name AS reachable, count(*) AS ways ORDER BY reachable"
  in
  Format.printf "Reachable from Ada in one or two hops:@.%a@.@." Table.pp reach;

  (* 4. The same query can be inspected as a physical plan. *)
  (match
     Engine.explain graph
       "MATCH (a:Person {name: 'Ada'})-[:KNOWS*1..2]->(b) RETURN b.name"
   with
  | Ok plan -> Printf.printf "Physical plan:\n%s\n" plan
  | Error e -> Printf.printf "explain failed: %s\n" (Engine.error_message e));

  (* 5. Updates: the outcome carries the modified graph. *)
  let { Engine.graph; table } =
    Engine.run_exn graph
      "MATCH (p:Person) WHERE p.born < 1900 SET p:Pioneer \
       RETURN p.name AS pioneer"
  in
  Format.printf "Pioneers:@.%a@." Table.pp table;
  Printf.printf "labels of node 1: %s\n"
    (String.concat ", " (Graph.labels graph (Cypher_values.Ids.node_of_int 1)))

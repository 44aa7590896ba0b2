(* Tests for the static scope analysis (compile-time SyntaxError for
   undefined variables, matching real-Cypher front ends). *)

open Helpers
module Engine = Cypher_engine.Engine
module Graph = Cypher_graph.Graph

let rejected ?mode q =
  match Engine.query ?mode Graph.empty q with
  | Ok _ -> Alcotest.failf "expected a scope error for %S" q
  | Error (Engine.Syntax_error _) -> ()
  | Error e ->
    Alcotest.failf "syntax error for %s (got %s)" q (Engine.error_message e)

let accepted q =
  match Engine.query Graph.empty q with
  | Error (Engine.Syntax_error m) ->
    Alcotest.failf "unexpected scope error for %S: %s" q m
  | Ok _ | Error _ -> ()

let undefined_in_return () =
  rejected "MATCH (a) RETURN b";
  rejected "RETURN x";
  rejected "MATCH (a) RETURN a.v + b.v"

let undefined_in_where () =
  rejected "MATCH (a) WHERE b.v = 1 RETURN a";
  rejected "MATCH (a) WITH a.v AS v WHERE a.v > 1 RETURN v"

let with_narrows_scope () =
  rejected "MATCH (n) WITH n.v AS v RETURN n";
  accepted "MATCH (n) WITH n.v AS v RETURN v";
  accepted "MATCH (n) WITH * RETURN n";
  accepted "MATCH (n) WITH *, 1 AS one RETURN n, one"

let binders_are_scoped () =
  accepted "RETURN [x IN [1, 2] | x * 2] AS l";
  rejected "RETURN [x IN [1, 2] | y] AS l";
  accepted "RETURN all(x IN [1] WHERE x > 0) AS ok";
  rejected "RETURN all(x IN [1] WHERE y > 0) AS ok";
  (* the binder does not leak *)
  rejected "WITH [x IN [1] | x] AS l RETURN x"

let pattern_variables_are_existential () =
  accepted "MATCH (a) WHERE (a)-[:T]->(b) RETURN a";
  accepted "MATCH (a) WHERE ()-->() RETURN a";
  accepted "MATCH (a) RETURN [(a)-->(b) | b] AS l";
  (* but property expressions inside patterns need outer scope *)
  rejected "MATCH (a) WHERE (x {v: undefined_var.v})-->() RETURN a"

let updates_are_checked () =
  rejected "MATCH (a) DELETE b";
  rejected "MATCH (a) SET b.v = 1";
  rejected "MATCH (a) SET a.v = b.v";
  rejected "MATCH (a) REMOVE b.v";
  accepted "MATCH (a) SET a.v = 1 REMOVE a.w";
  accepted "CREATE (a:X)-[:T]->(b:Y) SET a.v = b.v"

let unwind_and_call_bind () =
  accepted "UNWIND [1, 2] AS x RETURN x";
  rejected "UNWIND [1, 2] AS x RETURN y";
  accepted "CALL db.labels() YIELD label RETURN label";
  rejected "CALL db.labels() YIELD label RETURN nothere";
  accepted "CALL db.labels() YIELD label AS l RETURN l";
  rejected "CALL algo.bfs(nowhere) YIELD node, distance RETURN node"

let union_branches_independent () =
  accepted "RETURN 1 AS x UNION RETURN 2 AS x";
  rejected "MATCH (a) RETURN a AS x UNION RETURN a AS x"

let order_by_sees_source_scope () =
  accepted "MATCH (n) RETURN n.v AS v ORDER BY n.w";
  rejected "MATCH (n) RETURN n.v AS v ORDER BY m.w";
  (* SKIP/LIMIT cannot use variables *)
  rejected "MATCH (n) RETURN n.v AS v LIMIT n.v";
  accepted "MATCH (n) RETURN n.v AS v LIMIT 2 + 3"

(* A record binds each name once: both engines and EXPLAIN refuse a
   projection with two columns of the same name. *)
let duplicate_columns () =
  List.iter
    (fun q ->
      rejected ~mode:Engine.Reference q;
      rejected ~mode:Engine.Planned q;
      rejected ("EXPLAIN " ^ q))
    [
      "MATCH (a:N) RETURN a.i AS a, a.i + 10 AS a";
      "MATCH (a:N) WITH a.i AS a, a.i + 10 AS a RETURN a";
      "MATCH (a:N) RETURN *, a.i AS a";
    ];
  accepted "MATCH (a:N) RETURN a.i AS a, a.i + 10 AS b";
  accepted "MATCH (a:N) WITH *, a.i AS i RETURN *"

let merge_scope () =
  accepted "MERGE (a:X {v: 1}) ON CREATE SET a.c = true RETURN a";
  rejected "MERGE (a:X) ON CREATE SET b.c = true"

let suite =
  [
    tc "undefined variable in RETURN" undefined_in_return;
    tc "undefined variable in WHERE" undefined_in_where;
    tc "WITH narrows scope" with_narrows_scope;
    tc "comprehension and quantifier binders" binders_are_scoped;
    tc "pattern variables are existential" pattern_variables_are_existential;
    tc "update clauses are checked" updates_are_checked;
    tc "UNWIND and CALL introduce variables" unwind_and_call_bind;
    tc "UNION branches are independent" union_branches_independent;
    tc "ORDER BY sees the source scope" order_by_sees_source_scope;
    tc "MERGE ON CREATE/MATCH scope" merge_scope;
    tc "duplicate result columns" duplicate_columns;
  ]

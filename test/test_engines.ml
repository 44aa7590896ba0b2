(* Cross-checks: every query is run through both the reference semantics
   and the planned Volcano engine, and the result bags must agree.  This
   is the mechanism that keeps the optimized implementation honest
   against the paper's formal semantics. *)

open Helpers
open Cypher_gen

let cross g q () =
  match Cypher_engine.Engine.cross_check g q with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let queries_academic =
  [
    "MATCH (n) RETURN n";
    "MATCH (n:Researcher) RETURN n.name";
    "MATCH (n:Researcher) RETURN n.name AS name ORDER BY name";
    "MATCH (n:Researcher) RETURN n.name ORDER BY n.name DESC LIMIT 2";
    "MATCH (a)-[r]->(b) RETURN a, r, b";
    "MATCH (a)-[r:CITES]->(b) RETURN a, b";
    "MATCH (a)<-[r:CITES]-(b) RETURN a, b";
    "MATCH (a)-[r:CITES]-(b) RETURN a, b";
    "MATCH (r:Researcher)-[:AUTHORS]->(p:Publication) RETURN r.name, p.acmid";
    "MATCH (p:Publication)<-[:CITES*]-(q) RETURN p.acmid, count(q) AS c";
    "MATCH (p:Publication)<-[:CITES*1..2]-(q) RETURN p, q";
    "MATCH (p:Publication)-[:CITES*0..]->(q) RETURN p, q";
    "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s) RETURN r, s";
    "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) \
     WITH r, count(s) AS n MATCH (r)-[:AUTHORS]->(p) \
     OPTIONAL MATCH (p)<-[:CITES*]-(q:Publication) \
     RETURN r.name, n, count(DISTINCT q) AS cited";
    "MATCH (a:Researcher), (b:Student) RETURN a.name, b.name";
    "MATCH (a:Researcher)-[:SUPERVISES]->(s)<-[:SUPERVISES]-(b:Researcher) \
     WHERE a.name < b.name RETURN a.name, b.name, s.name";
    "MATCH (n) WHERE n.acmid > 200 RETURN n.acmid ORDER BY n.acmid";
    "MATCH (n) WHERE n:Publication OR n:Student RETURN count(*) AS c";
    "MATCH (n:Publication) WHERE exists(n.acmid) RETURN count(*) AS c";
    "MATCH (a {name: 'Elin'})-[:AUTHORS]->(p) RETURN p.acmid";
    "MATCH (a)-[:AUTHORS]->(p {acmid: 240}) RETURN a.name";
    "MATCH p = (a:Researcher)-[:AUTHORS]->(b) RETURN a.name, length(p)";
    "MATCH p = (a)-[:CITES*]->(b) RETURN nodes(p), relationships(p)";
    "MATCH (r:Researcher) RETURN r.name, size((r)-[:AUTHORS]->()) IS NULL AS x";
    "MATCH (r:Researcher) WHERE (r)-[:AUTHORS]->() RETURN r.name";
    "MATCH (r:Researcher) WHERE NOT (r)-[:AUTHORS]->() RETURN r.name";
    "MATCH (a)-[r:SUPERVISES]->(b) RETURN type(r), labels(b)";
    "MATCH (a)-[r]->(b) RETURN DISTINCT type(r)";
    "MATCH (a)-[r]->(b) RETURN type(r) AS t, count(*) AS c ORDER BY c DESC, t";
    "UNWIND [1, 2, 3] AS x RETURN x * 10 AS y";
    "UNWIND [1, 2, 2, null] AS x RETURN count(x) AS c, count(*) AS all";
    "UNWIND range(1, 10) AS x WITH x WHERE x % 2 = 0 RETURN collect(x) AS evens";
    "UNWIND [3, 1, 2] AS x RETURN x ORDER BY x";
    "UNWIND [[1, 2], [], [3]] AS l UNWIND l AS x RETURN x";
    "MATCH (n:Researcher) RETURN n.name UNION MATCH (n:Student) RETURN n.name";
    "MATCH (n) RETURN labels(n) AS l UNION ALL MATCH (n) RETURN labels(n) AS l";
    "MATCH (n:Researcher) WITH n ORDER BY n.name SKIP 1 LIMIT 1 RETURN n.name";
    "MATCH (a)-[:AUTHORS|SUPERVISES]->(b) RETURN a.name, b";
    "RETURN 1 + 2 * 3 AS x, 'a' + 'b' AS s, [1, 2][0] AS h";
    "RETURN CASE WHEN 1 < 2 THEN 'yes' ELSE 'no' END AS v";
    "UNWIND [1, 2, 3, 4] AS x RETURN sum(x) AS s, avg(x) AS a, min(x) AS mn, \
     max(x) AS mx, collect(x) AS all";
    "MATCH (a:Researcher) WHERE a.name STARTS WITH 'E' RETURN a.name";
    "MATCH (a:Researcher) WHERE a.name CONTAINS 'li' RETURN a.name";
    "MATCH (p1:Publication)<-[c:CITES*]-(p2:Publication) \
     RETURN p1.acmid AS a, count(*) AS paths ORDER BY paths DESC, a";
  ]

let queries_teachers =
  [
    "MATCH (x:Teacher)-[:KNOWS*2]->(y) RETURN x, y";
    "MATCH (x:Teacher)-[:KNOWS*1..2]->(z)-[:KNOWS*1..2]->(y:Teacher) RETURN x, z, y";
    "MATCH (x:Teacher)-[:KNOWS*1..2]->()-[:KNOWS*1..2]->(y:Teacher) RETURN x, y";
    "MATCH (x)-[:KNOWS*]->(y) RETURN x, y";
    "MATCH (x)-[r:KNOWS]->(y)-[s:KNOWS]->(z) RETURN x, y, z";
    "MATCH (x)-[r:KNOWS]->(y), (y)-[s:KNOWS]->(z) RETURN x, y, z";
    "MATCH (x)-[r]->(y) WHERE x:Teacher AND y:Teacher RETURN x, y";
    "MATCH p = (x)-[:KNOWS*]->(y:Teacher) RETURN length(p) AS l, count(*) AS c \
     ORDER BY l";
    "MATCH p = (x)-[r:KNOWS*2]->(y:Teacher) RETURN [n IN nodes(p) | id(n)] AS \
     ns, [q IN r | id(q)] AS rs";
  ]

let self_loop_queries =
  [
    "MATCH (x)-[*0..]->(x) RETURN x";
    "MATCH (x)-[r]->(x) RETURN x, r";
    "MATCH (x)-[*1..3]->(y) RETURN x, y";
  ]

let updating_queries =
  [
    "CREATE (a:Person {name: 'Ann'})-[:KNOWS {since: 2001}]->(b:Person \
     {name: 'Bob'}) RETURN a.name, b.name";
    "CREATE (a:X) CREATE (b:Y) CREATE (a)-[:R]->(b) RETURN labels(a), labels(b)";
    "UNWIND range(1, 3) AS i CREATE (n:Num {v: i}) RETURN count(*) AS c";
    "CREATE (a:T {v: 1}) SET a.v = 2, a.w = 3 RETURN a.v, a.w";
    "CREATE (a:T {v: 1}) SET a += {v: 5, u: 6} RETURN a.v, a.u";
    "CREATE (a:T) SET a:Extra RETURN labels(a)";
    "CREATE (a:T {v: 1}) REMOVE a.v RETURN a.v IS NULL AS gone";
    "CREATE (a:T)-[r:R]->(b:T) DELETE r RETURN 1 AS ok";
    "CREATE (a:T) DETACH DELETE a RETURN 1 AS ok";
    "MERGE (n:Single {k: 1}) RETURN n.k";
    "MERGE (n:Single {k: 1}) ON CREATE SET n.created = true RETURN n.created";
  ]

(* One query per plan shape on a generated social graph, larger than the
   paper's: streaming pipelines, grouped and global aggregates (float
   sums included), DISTINCT, ORDER BY with SKIP and LIMIT, UNWIND, a WITH
   continuation, OPTIONAL MATCH, variable-length paths and an error
   raised mid-stream.  People carry a unique [name] and a [city];
   FRIEND relationships a [since] year.  LIMIT only follows a total
   order, so the bags are defined. *)
let social_shape_queries =
  [
    "MATCH (a:Person)-[r:FRIEND]->(b) WHERE r.since > 2005 RETURN a.name, \
     b.name";
    "MATCH (a:Person)-[:FRIEND]->(b) RETURN count(b)";
    "MATCH (a:Person)-[r:FRIEND]->(b) RETURN a.name, count(b), sum(r.since), \
     avg(r.since)";
    "MATCH (a:Person) RETURN a.city AS city, count(*) AS n, collect(a.name)";
    "MATCH ()-[r:FRIEND]->() RETURN sum(r.since * 0.1), avg(r.since * 0.3)";
    "MATCH (a:Person)-[r:FRIEND]->(b) RETURN a.name, min(r.since), \
     max(r.since), count(DISTINCT b.city)";
    "MATCH ()-[r:FRIEND]->() RETURN percentileCont(r.since, 0.5), \
     percentileDisc(r.since, 0.9)";
    "MATCH (a:Person)-[:FRIEND]->(b) RETURN DISTINCT b.city";
    "MATCH (a:Person)-[r:FRIEND]->(b) RETURN a.name, b.name ORDER BY \
     r.since, a.name, b.name SKIP 5 LIMIT 20";
    "MATCH (a:Person) RETURN a.name ORDER BY a.city DESC, a.name LIMIT 7";
    "MATCH (a:Person) UNWIND [1,2] AS i RETURN a.name, i";
    "MATCH (a:Person)-[:FRIEND]->(b) WITH a, count(b) AS friends WHERE \
     friends > 2 MATCH (a)-[:FRIEND]->(c) RETURN a.name, friends, count(c)";
    "MATCH (a:Person) OPTIONAL MATCH (a)-[r:FRIEND]->(b) WHERE r.since > \
     2015 RETURN a.name, b.name";
    "MATCH p = (a:Person)-[:FRIEND*1..2]->(c) RETURN a.name, length(p), \
     c.name ORDER BY a.name, length(p), c.name LIMIT 25";
    "MATCH (a:Person) RETURN a.name / 2";
  ]

(* Paths whose only bound node is interior, [x] (k = 3): the planner
   starts there, expanding the prefix reversed and then the suffix.  The
   graph is a small [F] mesh with a self-loop at [x]; a variable-length
   hop left of [x] is traversed reversed, so its list, the named path and
   the restrictors must still read left to right. *)
let interior_graph () =
  (Cypher_engine.Engine.run_exn Cypher_graph.Graph.empty
     "UNWIND range(1, 7) AS i CREATE (:P {k: i}) WITH count(*) AS c \
      MATCH (a:P), (b:P) WHERE b.k = a.k + 1 OR b.k = a.k + 3 OR \
      (a.k = 3 AND b.k = 3) CREATE (a)-[:F]->(b)")
    .Cypher_engine.Engine.graph

let interior_queries =
  List.map
    (fun body -> "MATCH (x:P {k: 3}) MATCH " ^ body)
    [
      "(a)-[:F]->(x)-[:F]->(b) RETURN a.k, b.k";
      "(a)<-[:F]-(x)<-[:F]-(b) RETURN a.k, b.k";
      "(a)-[:F]-(x)-[:F]-(b) RETURN a.k, b.k";
      "(a)-[r:F]->(x)-[s:F]-(b) WHERE a = x OR b = x RETURN a.k, id(r), \
       id(s), b.k";
      "(a)-[:F]->(c)-[:F]->(x)-[:F]->(b) RETURN a.k, c.k, b.k";
      "(a)-[r:F*1..2]->(x)-[:F]->(b) RETURN a.k, [q IN r | id(q)] AS r, b.k";
      "(a)-[:F]->(x)-[r:F*1..2]-(b) RETURN a.k, [q IN r | id(q)] AS r, b.k";
      "p = (a)-[:F*1..2]->(x)-[:F]-(b) RETURN [n IN nodes(p) | n.k] AS ns, \
       [q IN relationships(p) | id(q)] AS rs";
      "TRAIL (a)-[r:F*1..3]-(x)-[:F*1..2]-(b) RETURN a.k, [q IN r | id(q)] \
       AS r, b.k";
      "p = ACYCLIC (a)-[:F*1..3]-(x)-[:F]-(b) RETURN [n IN nodes(p) | n.k] \
       AS ns";
    ]

let make_suite name g queries =
  List.mapi
    (fun i q ->
      tc (Printf.sprintf "%s-%02d: %s" name i (String.sub q 0 (min 48 (String.length q)))) (cross g q))
    queries

let suite =
  make_suite "academic" (Paper_graphs.academic ()) queries_academic
  @ make_suite "teachers" (Paper_graphs.teachers ()) queries_teachers
  @ make_suite "loop"
      (let g, _, _ = Paper_graphs.self_loop () in
       g)
      self_loop_queries
  @ make_suite "update" Cypher_graph.Graph.empty updating_queries
  @ make_suite "social"
      (Generate.social ~seed:7 ~people:60 ~avg_friends:5)
      social_shape_queries
  @ make_suite "interior" (interior_graph ()) interior_queries

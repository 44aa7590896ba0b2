(* E15: the Cypher 10 multiple-graphs composition of Example 6.1.

   A social-network universe: persons with FRIEND relationships (the
   soc_net graph) and IN relationships to City nodes (the register
   graph).  The first query projects a friends graph connecting pairs
   of persons that share a friend; the follow-up query composes it with
   the register graph to keep only pairs living in the same city. *)

open Helpers
open Cypher_graph
module Mg = Cypher_multigraph.Multigraph

(* A small deterministic universe:
     p1, p2 both friends with p3 (sharing a friend), both in Malmo;
     p4, p5 both friends with p6, but in different cities. *)
let universe () =
  let g = Graph.empty in
  let person g name =
    Graph.add_node ~labels:[ "Person" ] ~props:[ ("name", vstr name) ] g
  in
  let g, p1 = person g "Ada" in
  let g, p2 = person g "Ben" in
  let g, p3 = person g "Cleo" in
  let g, p4 = person g "Dan" in
  let g, p5 = person g "Eva" in
  let g, p6 = person g "Finn" in
  let g, malmo = Graph.add_node ~labels:[ "City" ] ~props:[ ("name", vstr "Malmo") ] g in
  let g, oslo = Graph.add_node ~labels:[ "City" ] ~props:[ ("name", vstr "Oslo") ] g in
  let friend g a b since =
    fst (Graph.add_rel ~src:a ~tgt:b ~rel_type:"FRIEND" ~props:[ ("since", vint since) ] g)
  in
  let lives g a c = fst (Graph.add_rel ~src:a ~tgt:c ~rel_type:"IN" g) in
  let soc = Graph.empty in
  let soc =
    List.fold_left
      (fun soc p -> Graph.insert_node soc p (Graph.node_data g p))
      soc [ p1; p2; p3; p4; p5; p6 ]
  in
  let soc = friend soc p1 p3 2000 in
  let soc = friend soc p2 p3 2001 in
  let soc = friend soc p4 p6 1990 in
  let soc = friend soc p5 p6 2015 in
  let reg = Graph.empty in
  let reg =
    List.fold_left
      (fun reg p -> Graph.insert_node reg p (Graph.node_data g p))
      reg [ p1; p2; p3; p4; p5; p6; malmo; oslo ]
  in
  let reg = lives reg p1 malmo in
  let reg = lives reg p2 malmo in
  let reg = lives reg p3 malmo in
  let reg = lives reg p4 malmo in
  let reg = lives reg p5 oslo in
  let reg = lives reg p6 oslo in
  Mg.Catalog.(empty |> add "soc_net" soc |> add "register" reg)

let example_6_1 () =
  let catalog = universe () in
  let config =
    Cypher_semantics.Config.with_params
      [ ("duration", vint 5) ]
      Cypher_semantics.Config.default
  in
  (* First query: project the friends graph (paper, Example 6.1). *)
  let q1 =
    "FROM GRAPH soc_net AT \"hdfs://cluster/soc_network\"\n\
     MATCH (a)-[r1:FRIEND]-()-[r2:FRIEND]-(b)\n\
     WHERE abs(r2.since - r1.since) < $duration AND a.name < b.name\n\
     WITH DISTINCT a, b\n\
     RETURN GRAPH friends OF (a)-[:SHARE_FRIEND]->(b)"
  in
  let r1 =
    match Mg.run ~config ~catalog ~default:"soc_net" q1 with
    | Ok r -> r
    | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e)
  in
  Alcotest.(check (option string)) "produced graph" (Some "friends") r1.Mg.produced;
  let friends =
    match Mg.Catalog.find "friends" r1.Mg.catalog with
    | Some g -> g
    | None -> Alcotest.fail "friends graph missing from catalog"
  in
  (* Ada-Ben share Cleo within 5 years; Dan-Eva share Finn but 25 years
     apart, so only one SHARE_FRIEND relationship is projected. *)
  Alcotest.(check int) "projected rels" 1 (Graph.rel_count friends);
  Alcotest.(check int) "projected nodes" 2 (Graph.node_count friends);
  (* Follow-up query: compose with the register graph; Ada and Ben live
     in the same city. *)
  let q2 =
    "QUERY GRAPH friends\n\
     MATCH (a)-[:SHARE_FRIEND]-(b)\n\
     FROM GRAPH register AT \"bolt://city/citizens\"\n\
     MATCH (a)-[:IN]->(c:City)<-[:IN]-(b)\n\
     RETURN a.name, b.name, c.name"
  in
  let r2 =
    match Mg.run ~config ~catalog:r1.Mg.catalog ~default:"friends" q2 with
    | Ok r -> r
    | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e)
  in
  (* the undirected SHARE_FRIEND match produces both orientations *)
  check_table_bag "composition result"
    (table
       [ "a.name"; "b.name"; "c.name" ]
       [
         [ ("a.name", vstr "Ada"); ("b.name", vstr "Ben"); ("c.name", vstr "Malmo") ];
         [ ("a.name", vstr "Ben"); ("b.name", vstr "Ada"); ("c.name", vstr "Malmo") ];
       ])
    r2.Mg.table

let graph_references_registered () =
  let catalog = universe () in
  let q =
    "FROM GRAPH soc_net AT \"hdfs://cluster/soc_network\"\n\
     MATCH (a:Person) RETURN count(*) AS c"
  in
  match Mg.run ~catalog ~default:"register" q with
  | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e)
  | Ok r ->
    check_table_bag "count from switched graph"
      (table [ "c" ] [ [ ("c", vint 6) ] ])
      r.Mg.table;
    Alcotest.(check (list (pair string string)))
      "AT location registered"
      [ ("soc_net", "hdfs://cluster/soc_network") ]
      (Mg.Catalog.locations r.Mg.catalog)

let chain_threading () =
  let catalog = universe () in
  let queries =
    [
      "FROM GRAPH soc_net\n\
       MATCH (a)-[:FRIEND]-(b) WHERE a.name < b.name\n\
       RETURN GRAPH pals OF (a)-[:PAL]->(b)";
      "QUERY GRAPH pals\nMATCH (a)-[:PAL]->(b) RETURN count(*) AS pairs";
    ]
  in
  match Mg.run_chain ~catalog ~default:"soc_net" queries with
  | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e)
  | Ok r ->
    check_table_bag "chained count"
      (table [ "pairs" ] [ [ ("pairs", vint 4) ] ])
      r.Mg.table

let set_operations () =
  let g = Graph.empty in
  let g, a = Graph.add_node ~labels:[ "A" ] g in
  let g, b = Graph.add_node ~labels:[ "B" ] g in
  let g, c = Graph.add_node ~labels:[ "C" ] g in
  let g, rab = Graph.add_rel ~src:a ~tgt:b ~rel_type:"T" g in
  let g, rbc = Graph.add_rel ~src:b ~tgt:c ~rel_type:"T" g in
  (* g1 covers {a, b} with rab; g2 covers {b, c} with rbc *)
  let sub nodes rels =
    let acc =
      List.fold_left
        (fun acc n -> Graph.insert_node acc n (Graph.node_data g n))
        Graph.empty nodes
    in
    Graph.insert_rels acc (List.map (Graph.rel_data g) rels)
  in
  let g1 = sub [ a; b ] [ rab ] and g2 = sub [ b; c ] [ rbc ] in
  let u = Mg.graph_union g1 g2 in
  Alcotest.(check int) "union nodes" 3 (Graph.node_count u);
  Alcotest.(check int) "union rels" 2 (Graph.rel_count u);
  let i = Mg.graph_intersection g1 g2 in
  Alcotest.(check int) "intersection nodes" 1 (Graph.node_count i);
  Alcotest.(check int) "intersection rels" 0 (Graph.rel_count i);
  Alcotest.(check bool) "intersection keeps b" true (Graph.mem_node i b);
  let d = Mg.graph_difference g1 g2 in
  Alcotest.(check int) "difference nodes" 1 (Graph.node_count d);
  Alcotest.(check bool) "difference keeps a" true (Graph.mem_node d a);
  Alcotest.(check int) "difference drops dangling rels" 0 (Graph.rel_count d);
  (* identity preserved: a query can still join the union against the
     original universe *)
  let t =
    Cypher_engine.Engine.run u "MATCH (x:A)-[:T]->(y:B) RETURN count(*) AS c"
  in
  check_table_bag "union queryable"
    (table [ "c" ] [ [ ("c", vint 1) ] ])
    t

let setop_syntax () =
  let catalog = universe () in
  let q =
    "GRAPH both = UNION OF soc_net, register\n\
     QUERY GRAPH both\n\
     MATCH (p:Person)-[:IN]->(c:City) MATCH (p)-[:FRIEND]-(q)\n\
     RETURN count(DISTINCT p) AS social_citizens"
  in
  match Mg.run ~catalog ~default:"soc_net" q with
  | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e)
  | Ok r ->
    Alcotest.(check (option string)) "constructed graph" (Some "both") r.Mg.produced;
    (* every person with both a FRIEND and an IN relationship *)
    Alcotest.(check bool) "rows returned" true
      (not (Cypher_table.Table.is_empty r.Mg.table))

let stream_api () =
  let g = Cypher_gen.Generate.chain ~n:100 ~rel_type:"T" in
  match Cypher_engine.Engine.stream g "MATCH (n) RETURN n.idx AS i" with
  | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e)
  | Ok seq ->
    (* consume only three rows *)
    let taken = List.of_seq (Seq.take 3 seq) in
    Alcotest.(check int) "three rows on demand" 3 (List.length taken);
    (match Cypher_engine.Engine.stream g "CREATE (:X)" with
    | Ok _ -> Alcotest.fail "updates must not stream"
    | Error _ -> ())

let error_paths () =
  let catalog = universe () in
  let expect_error q =
    match Mg.run ~catalog ~default:"soc_net" q with
    | Ok _ -> Alcotest.failf "expected %S to fail" q
    | Error _ -> ()
  in
  expect_error "FROM GRAPH nowhere\nMATCH (n) RETURN n";
  expect_error "GRAPH x = SYMMETRIC_DIFFERENCE OF soc_net, register";
  expect_error "GRAPH x = UNION OF soc_net";
  expect_error "RETURN GRAPH bad OF (a)-[:T]->(b)-[:T]->(c)";
  expect_error "MATCH (n RETURN n";
  (* RETURN GRAPH requires named, node-bound endpoints *)
  expect_error
    "MATCH (a:Person)-[:FRIEND]-(b)\nRETURN GRAPH g OF (a)-[:X|Y]->(b)"

(* A core piece fails exactly as the same text does in the engine, and
   sees the variables the pieces before it bound. *)
let core_pieces_use_the_engine_front_end () =
  let module Engine = Cypher_engine.Engine in
  let catalog = universe () in
  List.iter
    (fun q ->
      match (Mg.run ~catalog ~default:"soc_net" q, Engine.query Graph.empty q) with
      | Error got, Error want ->
        Alcotest.(check string) q (Engine.error_message want)
          (Engine.error_message got)
      | _ -> Alcotest.failf "%S: expected an error from both" q)
    [ "RETURN 1 / 0 AS x"; "RETURN x AS y" ];
  match
    Mg.run ~catalog ~default:"soc_net"
      "MATCH (a:Person)\nFROM GRAPH register\nRETURN a.name AS n"
  with
  | Ok r ->
    Alcotest.(check int) "bound variable in scope" 6
      (Cypher_table.Table.row_count r.Mg.table)
  | Error e -> Alcotest.fail (Engine.error_message e)

let suite =
  [
    tc "E15: Example 6.1 graph projection and composition" example_6_1;
    tc "composed-query error paths" error_paths;
    tc "core pieces fail as the engine does" core_pieces_use_the_engine_front_end;
    tc "graph set operations preserve identity" set_operations;
    tc "GRAPH ... = UNION OF syntax" setop_syntax;
    tc "Engine.stream is lazy and read-only" stream_api;
    tc "FROM GRAPH ... AT registers locations" graph_references_registered;
    tc "run_chain threads the catalog" chain_threading;
  ]

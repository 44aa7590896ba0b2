(* Tests for the graph algorithms library. *)

open Helpers
open Cypher_values
open Cypher_gen
module A = Cypher_algos.Algos
module Path_search = Cypher_algos.Path_search
module Graph = Cypher_graph.Graph

let score_of results n =
  match List.assoc_opt (Ids.node_of_int n) results with
  | Some s -> s
  | None -> Alcotest.failf "node %d missing" n

let pagerank_sums_to_one () =
  let g = Generate.random_uniform ~seed:3 ~nodes:30 ~rels:60 ~rel_types:[ "T" ] ~labels:[] in
  let pr = A.pagerank g in
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0. pr in
  Alcotest.(check bool) "sums to 1" true (Float.abs (total -. 1.) < 1e-6)

let pagerank_sink_highest () =
  (* a star pointing into a hub: the hub must rank highest *)
  let g = Graph.empty in
  let g, hub = Graph.add_node g in
  let g =
    List.fold_left
      (fun g _ ->
        let g, spoke = Graph.add_node g in
        fst (Graph.add_rel ~src:spoke ~tgt:hub ~rel_type:"T" g))
      g [ 1; 2; 3; 4; 5 ]
  in
  let pr = A.pagerank g in
  let hub_score = List.assoc hub pr in
  List.iter
    (fun (n, s) ->
      if not (Ids.equal_node n hub) then
        Alcotest.(check bool) "hub dominates" true (hub_score > s))
    pr

let pagerank_symmetric_cycle () =
  let g = Generate.cycle ~n:5 ~rel_type:"T" in
  let pr = A.pagerank g in
  List.iter
    (fun (_, s) ->
      Alcotest.(check bool) "uniform on a cycle" true (Float.abs (s -. 0.2) < 1e-6))
    pr

let wcc () =
  (* two disjoint chains *)
  let g = Generate.chain ~n:3 ~rel_type:"T" in
  let g, a = Graph.add_node g in
  let g, b = Graph.add_node g in
  let g, _ = Graph.add_rel ~src:a ~tgt:b ~rel_type:"T" g in
  let comps = A.weakly_connected_components g in
  let ids = List.sort_uniq Int.compare (List.map snd comps) in
  Alcotest.(check (list int)) "two components" [ 0; 1 ] ids;
  Alcotest.(check bool) "a and b together" true
    (List.assoc a comps = List.assoc b comps)

let scc () =
  (* a 3-cycle plus a tail: cycle is one SCC, tail nodes are singletons *)
  let g = Generate.cycle ~n:3 ~rel_type:"T" in
  let g, t = Graph.add_node g in
  let g, _ = Graph.add_rel ~src:(Ids.node_of_int 1) ~tgt:t ~rel_type:"T" g in
  let comps = A.strongly_connected_components g in
  let cycle_comp = List.assoc (Ids.node_of_int 1) comps in
  Alcotest.(check bool) "cycle nodes share a component" true
    (List.assoc (Ids.node_of_int 2) comps = cycle_comp
    && List.assoc (Ids.node_of_int 3) comps = cycle_comp);
  Alcotest.(check bool) "tail is its own component" true
    (List.assoc t comps <> cycle_comp)

let bfs () =
  let g = Generate.chain ~n:5 ~rel_type:"T" in
  let d = A.bfs_distances g ~from:(Ids.node_of_int 1) () in
  Alcotest.(check int) "reaches all" 5 (List.length d);
  Alcotest.(check int) "distance to the end" 4
    (List.assoc (Ids.node_of_int 5) d);
  (* direction matters *)
  let d_in = A.bfs_distances g ~from:(Ids.node_of_int 1) ~direction:`In () in
  Alcotest.(check int) "nothing upstream" 1 (List.length d_in)

(* The path-search kernel's bidirectional Dijkstra, run on a directed
   graph whose costs sit in the [w] property. *)
let cheapest g s e =
  let cost r =
    match Graph.rel_prop g r "w" with
    | Value.Int i -> float_of_int i
    | Value.Float f -> f
    | _ -> 1.
  in
  let along dir n f =
    Graph.iter_adjacent g n dir Graph.any_type (fun r m _ -> f r m (cost r))
  in
  Path_search.cheapest ~fwd:(along `Out) ~bwd:(along `In) s e

let dijkstra () =
  (* a cheap long way and an expensive short way *)
  let g = Graph.empty in
  let g, a = Graph.add_node g in
  let g, b = Graph.add_node g in
  let g, c = Graph.add_node g in
  let g, direct = Graph.add_rel ~src:a ~tgt:c ~rel_type:"T" ~props:[ ("w", Value.Int 10) ] g in
  let g, leg1 = Graph.add_rel ~src:a ~tgt:b ~rel_type:"T" ~props:[ ("w", Value.Int 2) ] g in
  let g, leg2 = Graph.add_rel ~src:b ~tgt:c ~rel_type:"T" ~props:[ ("w", Value.Int 3) ] g in
  ignore direct;
  (match cheapest g a c with
  | Some (cost, steps) ->
    Alcotest.(check bool) "cheapest cost" true (cost = 5.);
    Alcotest.(check bool) "path goes through b" true (steps = [ (leg1, b); (leg2, c) ])
  | None -> Alcotest.fail "expected a path");
  match cheapest g c a with
  | Some _ -> Alcotest.fail "direction must be respected"
  | None -> ()

let dijkstra_costs () =
  let chain w =
    let g = Graph.empty in
    let g, a = Graph.add_node g in
    let g, b = Graph.add_node g in
    let g, _ = Graph.add_rel ~src:a ~tgt:b ~rel_type:"T" ~props:[ ("w", Value.Float w) ] g in
    (g, a, b)
  in
  (* +inf is a cost like any other: the only path is still returned *)
  (let g, a, b = chain Float.infinity in
   match cheapest g a b with
   | Some (cost, [ _ ]) -> Alcotest.(check bool) "infinite cost" true (cost = Float.infinity)
   | _ -> Alcotest.fail "expected the infinite-cost path");
  List.iter
    (fun w ->
      let g, a, b = chain w in
      match cheapest g a b with
      | _ -> Alcotest.failf "cost %f accepted" w
      | exception Path_search.Invalid_cost _ -> ())
    [ Float.nan; -1. ]

let triangles () =
  let g = Generate.clique ~n:4 ~rel_type:"T" in
  Alcotest.(check int) "K4 has 4 triangles" 4 (A.triangle_count g);
  let chain = Generate.chain ~n:10 ~rel_type:"T" in
  Alcotest.(check int) "chains have none" 0 (A.triangle_count chain)

let clustering () =
  let g = Generate.clique ~n:4 ~rel_type:"T" in
  Alcotest.(check bool) "clique clusters fully" true
    (A.local_clustering g (Ids.node_of_int 1) = 1.);
  let chain = Generate.chain ~n:3 ~rel_type:"T" in
  Alcotest.(check bool) "middle of a chain: 0" true
    (A.local_clustering chain (Ids.node_of_int 2) = 0.)

let histogram () =
  let g = Generate.chain ~n:4 ~rel_type:"T" in
  (* degrees: 1, 2, 2, 1 *)
  Alcotest.(check (list (pair int int))) "histogram" [ (1, 2); (2, 2) ]
    (A.degree_histogram g)

let consistent_with_queries () =
  (* BFS distance agrees with shortestPath through the language *)
  let g = Generate.grid ~rows:4 ~cols:4 ~rel_type:"T" in
  let d = A.bfs_distances g ~from:(Ids.node_of_int 1) () in
  let far = Ids.node_of_int 16 in
  let via_query =
    match
      Cypher_table.Table.rows
        (run g
           "MATCH (a {row: 0, col: 0}), (b {row: 3, col: 3}) \
            MATCH p = shortestPath((a)-[:T*]->(b)) RETURN length(p) AS l")
    with
    | [ row ] -> Cypher_table.Record.find_or_null row "l"
    | _ -> Alcotest.fail "expected one row"
  in
  check_value "algo and query agree" (vint (List.assoc far d)) via_query

let suite =
  [
    tc "pagerank sums to one" pagerank_sums_to_one;
    tc "pagerank ranks the hub first" pagerank_sink_highest;
    tc "pagerank is uniform on a cycle" pagerank_symmetric_cycle;
    tc "weakly connected components" wcc;
    tc "strongly connected components (Tarjan)" scc;
    tc "bfs distances" bfs;
    tc "dijkstra weighted shortest path" dijkstra;
    tc "dijkstra rejects NaN and negative costs, keeps +inf" dijkstra_costs;
    tc "triangle count" triangles;
    tc "local clustering coefficient" clustering;
    tc "degree histogram" histogram;
    tc "algorithms agree with shortestPath queries" consistent_with_queries;
  ]

(* The Cypher 10 multiple-graphs example (paper, Section 6, Example 6.1):
   a query projects a new graph connecting people who share a friend, and
   a follow-up query composes that projected graph with a civil register
   to keep only pairs living in the same city.

   Run with:  dune exec examples/multigraph_composition.exe *)

open Cypher_values
open Cypher_gen
module Mg = Cypher_multigraph.Multigraph
module Graph = Cypher_graph.Graph
module Table = Cypher_table.Table
module Config = Cypher_semantics.Config

(* Build a universe once, then split it into two named graphs sharing the
   person nodes: soc_net (FRIEND relationships) and register (City nodes
   and IN relationships). *)
let build_catalog () =
  let universe = Generate.social ~seed:5 ~people:80 ~avg_friends:5 in
  (* add city nodes and IN relationships based on the "city" property *)
  let cities = Hashtbl.create 8 in
  let with_cities =
    List.fold_left
      (fun g p ->
        match Graph.node_prop g p "city" with
        | Value.String name ->
          let g, city =
            match Hashtbl.find_opt cities name with
            | Some c -> (g, c)
            | None ->
              let g, c =
                Graph.add_node ~labels:[ "City" ]
                  ~props:[ ("name", Value.String name) ]
                  g
              in
              Hashtbl.add cities name c;
              (g, c)
          in
          fst (Graph.add_rel ~src:p ~tgt:city ~rel_type:"IN" g)
        | _ -> g)
      universe (Graph.nodes universe)
  in
  let keep_rels g pred =
    List.fold_left
      (fun acc r ->
        if pred r then acc else Graph.delete_rel acc r)
      g (Graph.rels g)
  in
  let soc_net =
    keep_rels with_cities (fun r ->
        Graph.rel_type with_cities r = "FRIEND")
  in
  let register =
    keep_rels with_cities (fun r -> Graph.rel_type with_cities r = "IN")
  in
  Mg.Catalog.(empty |> add "soc_net" soc_net |> add "register" register)

let () =
  let catalog = build_catalog () in
  let config = Config.with_params [ ("duration", Value.Int 5) ] Config.default in

  (* Example 6.1, first query: people with a friend in common whose
     friendships started within $duration years of each other. *)
  let q1 =
    "FROM GRAPH soc_net AT \"hdfs://cluster/soc_network\"\n\
     MATCH (a)-[r1:FRIEND]-()-[r2:FRIEND]-(b)\n\
     WHERE abs(r2.since - r1.since) < $duration AND a.name < b.name\n\
     WITH DISTINCT a, b\n\
     RETURN GRAPH friends OF (a)-[:SHARE_FRIEND]->(b)"
  in
  Printf.printf "Query 1 (projects a new graph):\n%s\n\n" q1;
  let r1 =
    match Mg.run ~config ~catalog ~default:"soc_net" q1 with
    | Ok r -> r
    | Error e -> failwith (Cypher_engine.Engine.error_message e)
  in
  (match Mg.Catalog.find "friends" r1.Mg.catalog with
  | Some friends ->
    Printf.printf "projected graph 'friends': %d nodes, %d SHARE_FRIEND rels\n\n"
      (Graph.node_count friends) (Graph.rel_count friends)
  | None -> print_endline "no projection!");

  (* Example 6.1, follow-up: compose with the register graph. *)
  let q2 =
    "QUERY GRAPH friends\n\
     MATCH (a)-[:SHARE_FRIEND]-(b)\n\
     FROM GRAPH register AT \"bolt://city/citizens\"\n\
     MATCH (a)-[:IN]->(c:City)<-[:IN]-(b)\n\
     WHERE a.name < b.name\n\
     RETURN a.name AS a, b.name AS b, c.name AS city LIMIT 10"
  in
  Printf.printf "Query 2 (composes with the register graph):\n%s\n\n" q2;
  (match Mg.run ~config ~catalog:r1.Mg.catalog ~default:"friends" q2 with
  | Ok r2 ->
    Format.printf "friend-sharing pairs living in the same city:@.%a@."
      Table.pp r2.Mg.table
  | Error e -> failwith (Cypher_engine.Engine.error_message e));
  Printf.printf "\ncatalog now contains: %s\n"
    (String.concat ", " (Mg.Catalog.names r1.Mg.catalog))

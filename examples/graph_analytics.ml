(* Graph algorithms over the same store the query language uses — the
   paper's introduction lists "built-in support for graph algorithms
   (e.g., Page Rank, subgraph matching and so on)" among the reasons to
   use a graph database.  This example combines both: algorithms find
   globally interesting nodes, queries explain them.

   Run with:  dune exec examples/graph_analytics.exe *)

open Cypher_values
open Cypher_gen
module A = Cypher_algos.Algos
module Engine = Cypher_engine.Engine
module Graph = Cypher_graph.Graph
module Table = Cypher_table.Table

let () =
  let g = Generate.citation ~seed:12 ~papers:80 ~avg_cites:3 in
  Printf.printf "Citation graph: %d nodes, %d relationships\n\n"
    (Graph.node_count g) (Graph.rel_count g);

  (* PageRank over the citation structure *)
  let pr = A.pagerank g in
  let ranked =
    List.filter (fun (n, _) -> Graph.has_label g n "Publication") pr
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  in
  Printf.printf "Top publications by PageRank:\n";
  List.iteri
    (fun i (n, score) ->
      if i < 5 then
        match Graph.node_prop g n "acmid" with
        | Value.Int acmid -> Printf.printf "  acmid %d  score %.4f\n" acmid score
        | _ -> ())
    ranked;

  (* explain the top paper with a query: who cites it? *)
  (match ranked with
  | (top, _) :: _ ->
    let acmid =
      match Graph.node_prop g top "acmid" with
      | Value.Int i -> i
      | _ -> 0
    in
    let t =
      Engine.run g
        (Printf.sprintf
           "MATCH (p:Publication {acmid: %d})<-[:CITES*1..2]-(q:Publication) \
            RETURN count(DISTINCT q) AS directly_or_indirectly_citing"
           acmid)
    in
    Format.printf "@.Citations into the top paper:@.%a@.@." Table.pp t
  | [] -> ());

  (* components and structure *)
  let wcc = A.weakly_connected_components g in
  let components = List.sort_uniq Int.compare (List.map snd wcc) in
  Printf.printf "Weakly connected components: %d\n" (List.length components);
  Printf.printf "Triangles (undirected): %d\n" (A.triangle_count g);
  let hist = A.degree_histogram g in
  Printf.printf "Degree histogram (degree: count): %s\n"
    (String.concat ", "
       (List.map (fun (d, c) -> Printf.sprintf "%d:%d" d c) hist));

  (* weighted routing over a transport-style grid *)
  let grid = Generate.grid ~rows:6 ~cols:6 ~rel_type:"ROAD" in
  let weight (d : Graph.rel_data) =
    (* pretend congestion: weight by target column *)
    match Graph.node_prop grid d.tgt "col" with
    | Value.Int c -> 1. +. (0.2 *. float_of_int c)
    | _ -> 1.
  in
  let along dir n f =
    Graph.iter_adjacent grid n dir Graph.any_type (fun r m d -> f r m (weight d))
  in
  match
    Cypher_algos.Path_search.cheapest ~fwd:(along `Out) ~bwd:(along `In)
      (Ids.node_of_int 1) (Ids.node_of_int 36)
  with
  | Some (cost, path) ->
    Printf.printf "\nCheapest 6x6 grid route: cost %.1f over %d hops\n" cost
      (List.length path)
  | None -> print_endline "no route!"

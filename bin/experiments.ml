(* Regenerates every table and figure of the paper (experiment index E1-E16
   in DESIGN.md).  Each experiment prints what the paper states and what
   this implementation computes, so the output is directly comparable;
   EXPERIMENTS.md records a captured run. *)

open Cypher_values
open Cypher_graph
open Cypher_table
open Cypher_gen
module Engine = Cypher_engine.Engine
module Config = Cypher_semantics.Config

let section title =
  Printf.printf "\n=== %s ===\n" title

let show_table ?columns t =
  match columns with
  | Some columns -> Format.printf "%a@." (Table.pp_with ~columns) t
  | None -> Format.printf "%a@." Table.pp t

let run_and_show ?columns ?(mode = Engine.Planned) ?config g q =
  Printf.printf "query: %s\n" (String.concat " " (String.split_on_char '\n' q));
  match Engine.query ?config ~mode g q with
  | Ok outcome -> show_table ?columns outcome.Engine.table
  | Error e -> Printf.printf "ERROR: %s\n" (Engine.error_message e)

(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1: Figure 1 / Example 4.1 — the academic data graph";
  let g = Paper_graphs.academic () in
  Printf.printf
    "Paper: G = (N, R, src, tgt, iota, lambda, tau) with N = {n1..n10}, \
     R = {r1..r11}.\nOurs:\n";
  Format.printf "%a" Graph.pp g;
  Printf.printf "nodes=%d rels=%d (paper: 10 and 11)\n" (Graph.node_count g)
    (Graph.rel_count g)

let e2 () =
  section "E2: Figure 2a — bindings after OPTIONAL MATCH (line 2)";
  Printf.printf "Paper: (n1,null) (n6,n7) (n6,n8) (n10,n7)\n";
  run_and_show ~columns:[ "r"; "s" ]
    (Paper_graphs.academic ())
    "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) \
     RETURN r, s"

let e3 () =
  section "E3: Figure 2b — bindings after WITH r, count(s) (line 3)";
  Printf.printf "Paper: (n1,0) (n6,2) (n10,1)\n";
  run_and_show ~columns:[ "r"; "studentsSupervised" ]
    (Paper_graphs.academic ())
    "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) \
     WITH r, count(s) AS studentsSupervised RETURN r, studentsSupervised"

let e4 () =
  section "E4: table after line 4 — researchers with publications";
  Printf.printf "Paper: (n1,0,n2) (n6,2,n5) (n6,2,n9); Thor (n10) drops out\n";
  run_and_show ~columns:[ "r"; "studentsSupervised"; "p1" ]
    (Paper_graphs.academic ())
    "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) \
     WITH r, count(s) AS studentsSupervised \
     MATCH (r)-[:AUTHORS]->(p1:Publication) RETURN r, studentsSupervised, p1"

let e5 () =
  section "E5: table after line 5 — variable-length CITES* with duplicates";
  Printf.printf
    "Paper: six rows; (n1,0,n2,n9) appears twice (via n4 and via n5)\n";
  run_and_show ~columns:[ "r"; "studentsSupervised"; "p1"; "p2" ]
    (Paper_graphs.academic ())
    "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) \
     WITH r, count(s) AS studentsSupervised \
     MATCH (r)-[:AUTHORS]->(p1:Publication) \
     OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication) \
     RETURN r, studentsSupervised, p1, p2"

let e6 () =
  section "E6: the final result of the Section 3 query";
  Printf.printf "Paper: Nils|0|3 and Elin|2|1\n";
  run_and_show ~columns:[ "r.name"; "studentsSupervised"; "citedCount" ]
    (Paper_graphs.academic ())
    "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) \
     WITH r, count(s) AS studentsSupervised \
     MATCH (r)-[:AUTHORS]->(p1:Publication) \
     OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication) \
     RETURN r.name, studentsSupervised, count(DISTINCT p2) AS citedCount"

let e7 () =
  section "E7: Example 4.2 — node pattern satisfaction on Figure 4";
  let g = Paper_graphs.teachers () in
  let np = Cypher_ast.Ast.node ~name:"x" ~labels:[ "Teacher" ] () in
  Printf.printf
    "Paper: (n1,G,x->n1) |= x:Teacher; (n2,G,u) not for any u; n3, n4 yes\n";
  List.iter
    (fun i ->
      let u = Record.of_list [ ("x", Value.Node (Paper_graphs.node i)) ] in
      Printf.printf "(n%d, G, x->n%d) |= (x:Teacher)  =  %b\n" i i
        (Cypher_semantics.Eval.satisfies_node_pattern Config.default g u
           (Paper_graphs.node i) np))
    [ 1; 2; 3; 4 ]

let e8 () =
  section "E8: Example 4.3 — rigid pattern (x:Teacher)-[:KNOWS*2]->(y)";
  Printf.printf "Paper: satisfied only by p = n1 r1 n2 r2 n3 with x=n1, y=n3\n";
  run_and_show
    (Paper_graphs.teachers ())
    "MATCH (x:Teacher)-[:KNOWS*2]->(y) RETURN x, y"

let e9 () =
  section "E9: Example 4.4 — variable-length pattern with named middle node";
  Printf.printf
    "Paper: matches (x=n1,z=n2,y=n3), (x=n1,z=n2,y=n4), (x=n1,z=n3,y=n4)\n";
  run_and_show
    (Paper_graphs.teachers ())
    "MATCH (x:Teacher)-[:KNOWS*1..2]->(z)-[:KNOWS*1..2]->(y:Teacher) \
     RETURN x, z, y"

let e10 () =
  section "E10: Example 4.5 — bag multiplicity with anonymous middle node";
  Printf.printf
    "Paper: two copies of {x->n1, y->n4} are added to match(pi, G, {})\n";
  run_and_show
    (Paper_graphs.teachers ())
    "MATCH (x:Teacher)-[:KNOWS*1..2]->()-[:KNOWS*1..2]->(y:Teacher) \
     RETURN x, y"

let e11 () =
  section "E11: Example 4.6 — [[MATCH (x)-[:KNOWS*]->(y)]] on a driving table";
  let g = Paper_graphs.teachers () in
  let driving =
    Table.create ~fields:[ "x" ]
      [
        Record.of_list [ ("x", Value.Node (Paper_graphs.node 1)) ];
        Record.of_list [ ("x", Value.Node (Paper_graphs.node 3)) ];
      ]
  in
  Printf.printf
    "Paper: rows (n1,n2) (n1,n3) (n1,n4) (n3,n4).\nDriving table {(x:n1); (x:n3)}:\n";
  let clause =
    match Cypher_parser.Parser.parse_query_exn "MATCH (x)-[:KNOWS*]->(y) RETURN x" with
    | Cypher_ast.Ast.Q_single { sq_clauses = [ c ]; _ } -> c
    | _ -> assert false
  in
  let out =
    Cypher_semantics.Clauses.apply_clause Config.default clause
      { Cypher_semantics.Clauses.graph = g; table = driving }
  in
  show_table ~columns:[ "x"; "y" ] out.Cypher_semantics.Clauses.table

let e12 () =
  section "E12: Section 4.2 — the self-loop graph and morphism semantics";
  let g, _, _ = Paper_graphs.self_loop () in
  Printf.printf
    "Paper: under Cypher semantics (x)-[*0..]->(x) returns two matches \
     (traversing the loop zero times and once); under homomorphism it \
     would be infinite.\nEdge isomorphism:\n";
  run_and_show g "MATCH (x)-[*0..]->(x) RETURN x";
  Printf.printf "Homomorphism with hop cap 5 (6 = cap+1 rows, unbounded as the cap grows):\n";
  let config =
    Config.{ default with morphism = Homomorphism; var_length_cap = Some 5 }
  in
  run_and_show ~config ~mode:Engine.Reference g "MATCH (x)-[*0..]->(x) RETURN x";
  Printf.printf "Node isomorphism (the third Section 8 option):\n";
  let config = Config.{ default with morphism = Node_isomorphism } in
  run_and_show ~config ~mode:Engine.Reference g "MATCH (x)-[*0..]->(x) RETURN x"

let e13 () =
  section "E13: Section 3 — network management query on a generated data center";
  let g = Generate.datacenter ~seed:42 ~services:64 ~layers:4 in
  Printf.printf
    "Paper query: the component depended upon by the most services.\n\
     Generated topology: %d components, %d DEPENDS_ON edges.\n"
    (Graph.node_count g) (Graph.rel_count g);
  run_and_show g
    "MATCH (svc:Service)<-[:DEPENDS_ON*]-(dep:Service) \
     RETURN svc.name AS component, count(DISTINCT dep) AS dependents \
     ORDER BY dependents DESC, component LIMIT 1"

let e14 () =
  section "E14: Section 3 — fraud detection query on a generated dataset";
  let g = Generate.fraud ~seed:7 ~holders:40 ~identifiers:60 ~ring_fraction:0.15 in
  Printf.printf
    "Paper query: identifiers shared by more than one account holder.\n\
     Generated data: %d nodes, %d HAS edges.\n"
    (Graph.node_count g) (Graph.rel_count g);
  run_and_show g
    "MATCH (accHolder:AccountHolder)-[:HAS]->(pInfo) \
     WHERE pInfo:SSN OR pInfo:PhoneNumber OR pInfo:Address \
     WITH pInfo, collect(accHolder.uniqueId) AS accountHolders, \
     count(*) AS fraudRingCount WHERE fraudRingCount > 1 \
     RETURN accountHolders, labels(pInfo) AS personalInformation, \
     fraudRingCount ORDER BY fraudRingCount DESC LIMIT 5"

let e15 () =
  section "E15: Example 6.1 — multiple graphs and query composition (Cypher 10)";
  let module Mg = Cypher_multigraph.Multigraph in
  (* a small universe: person nodes shared between a social graph and a
     civil register *)
  let g = Graph.empty in
  let person g name = Graph.add_node ~labels:[ "Person" ] ~props:[ ("name", Value.String name) ] g in
  let g, p1 = person g "Ada" in
  let g, p2 = person g "Ben" in
  let g, p3 = person g "Cleo" in
  let g, malmo = Graph.add_node ~labels:[ "City" ] ~props:[ ("name", Value.String "Malmo") ] g in
  let soc =
    List.fold_left (fun acc p -> Graph.insert_node acc p (Graph.node_data g p))
      Graph.empty [ p1; p2; p3 ]
  in
  let soc, _ = Graph.add_rel ~src:p1 ~tgt:p3 ~rel_type:"FRIEND" ~props:[ ("since", Value.Int 2000) ] soc in
  let soc, _ = Graph.add_rel ~src:p2 ~tgt:p3 ~rel_type:"FRIEND" ~props:[ ("since", Value.Int 2002) ] soc in
  let reg =
    List.fold_left (fun acc p -> Graph.insert_node acc p (Graph.node_data g p))
      Graph.empty [ p1; p2; p3; malmo ]
  in
  let reg, _ = Graph.add_rel ~src:p1 ~tgt:malmo ~rel_type:"IN" reg in
  let reg, _ = Graph.add_rel ~src:p2 ~tgt:malmo ~rel_type:"IN" reg in
  let catalog = Mg.Catalog.(empty |> add "soc_net" soc |> add "register" reg) in
  let config = Config.with_params [ ("duration", Value.Int 5) ] Config.default in
  let q1 =
    "FROM GRAPH soc_net AT \"hdfs://cluster/soc_network\"\n\
     MATCH (a)-[r1:FRIEND]-()-[r2:FRIEND]-(b)\n\
     WHERE abs(r2.since - r1.since) < $duration AND a.name < b.name\n\
     WITH DISTINCT a, b\n\
     RETURN GRAPH friends OF (a)-[:SHARE_FRIEND]->(b)"
  in
  Printf.printf "First query (projects the friends graph):\n%s\n" q1;
  (match Mg.run ~config ~catalog ~default:"soc_net" q1 with
  | Error e -> Printf.printf "ERROR: %s\n" (Engine.error_message e)
  | Ok r1 ->
    (match Mg.Catalog.find "friends" r1.Mg.catalog with
    | Some friends ->
      Printf.printf "projected graph 'friends':\n";
      Format.printf "%a" Graph.pp friends
    | None -> Printf.printf "no graph projected!\n");
    let q2 =
      "QUERY GRAPH friends\n\
       MATCH (a)-[:SHARE_FRIEND]-(b)\n\
       FROM GRAPH register AT \"bolt://city/citizens\"\n\
       MATCH (a)-[:IN]->(c:City)<-[:IN]-(b)\n\
       RETURN DISTINCT a.name, c.name"
    in
    Printf.printf "Follow-up query (composes with the register graph):\n%s\n" q2;
    (match Mg.run ~config ~catalog:r1.Mg.catalog ~default:"friends" q2 with
    | Ok r2 -> show_table r2.Mg.table
    | Error e -> Printf.printf "ERROR: %s\n" (Engine.error_message e)))

let e16 () =
  section "E16: Section 6 — temporal types (Cypher 10)";
  let g = Graph.empty in
  run_and_show g
    "RETURN toString(date('2018-06-10')) AS sigmod_day, \
     date('2018-06-10').dayOfWeek AS dow, \
     toString(date('2018-06-10') + duration('P5D')) AS end_of_conf, \
     toString(datetime('2018-06-10T09:00:00-05:00') - \
     datetime('2018-06-10T08:00:00-05:00')) AS keynote";
  run_and_show g
    "RETURN toString(localdatetime({year: 2018, month: 6, day: 10, hour: 9})) \
     AS ldt, duration({days: 2, hours: 3}).hours AS hours"

let all_experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
  ]

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "--exp" :: ids ->
    List.iter
      (fun id ->
        match List.assoc_opt id all_experiments with
        | Some f -> f ()
        | None -> Printf.printf "unknown experiment: %s\n" id)
      ids
  | _ -> List.iter (fun (_, f) -> f ()) all_experiments

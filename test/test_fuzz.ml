(* Fuzzing: random scope-correct queries run through both engines on
   random graphs.  A crash, or any disagreement between the reference
   semantics and the planned Volcano executor, fails the test. *)

open Helpers
open Cypher_gen
module Engine = Cypher_engine.Engine

let fuzz_engines_agree () =
  let rng = Prng.create 20260705 in
  let failures = ref [] in
  for round = 1 to 150 do
    let g =
      Generate.random_uniform
        ~seed:(Prng.int rng 1_000_000)
        ~nodes:(2 + Prng.int rng 6)
        ~rels:(Prng.int rng 10) ~rel_types:[ "A"; "B" ] ~labels:[ "X"; "Y" ]
    in
    let q = Workload.random_read_query rng in
    match Engine.cross_check g q with
    | Ok _ -> ()
    | Error e ->
      (* queries with ORDER BY compare as bags, so any error here is a
         real disagreement or crash *)
      failures := Printf.sprintf "round %d: %s" round e :: !failures
  done;
  match !failures with
  | [] -> ()
  | fs ->
    Alcotest.failf "%d fuzz failures; first: %s" (List.length fs)
      (List.nth fs (List.length fs - 1))

let fuzz_expressions_stable () =
  (* random literal expressions must parse, print, re-parse to the same
     AST, and evaluate identically before and after the round trip *)
  let rng = Prng.create 99 in
  for _ = 1 to 300 do
    let text = Workload.random_expression rng in
    let e1 = Cypher_parser.Parser.parse_expr_exn text in
    let printed = Cypher_ast.Pretty.expr_to_string e1 in
    let e2 =
      try Cypher_parser.Parser.parse_expr_exn printed
      with exn ->
        Alcotest.failf "re-parse of %S (from %S) failed: %s" printed text
          (Printexc.to_string exn)
    in
    let eval e =
      match
        Cypher_semantics.Eval.eval_expr cfg Cypher_graph.Graph.empty
          Cypher_table.Record.empty e
      with
      | v -> Some v
      | exception _ -> None
    in
    match eval e1, eval e2 with
    | Some v1, Some v2 ->
      if not (Cypher_values.Value.equal_total v1 v2) then
        Alcotest.failf "%S evaluates differently after round trip" text
    | None, None -> ()
    | _ -> Alcotest.failf "%S: round trip changed evaluability" text
  done

let fuzz_queries_parse_and_print () =
  let rng = Prng.create 7 in
  for _ = 1 to 200 do
    let q = Workload.random_read_query rng in
    match Cypher_parser.Parser.parse_query q with
    | Error e -> Alcotest.failf "generated query does not parse: %s\n%s" q e
    | Ok ast ->
      let printed = Cypher_ast.Pretty.query_to_string ast in
      (match Cypher_parser.Parser.parse_query printed with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "printed form does not re-parse: %s\nfrom: %s" e printed)
  done

let fuzz_indexes_transparent () =
  (* a property index must never change results: run each random query
     on the same graph with and without the index *)
  let rng = Prng.create 31337 in
  for round = 1 to 60 do
    let g =
      Generate.random_uniform
        ~seed:(Prng.int rng 1_000_000)
        ~nodes:(3 + Prng.int rng 6)
        ~rels:(Prng.int rng 12) ~rel_types:[ "A"; "B" ] ~labels:[ "X"; "Y" ]
    in
    let gi = Cypher_graph.Graph.create_index g ~label:"X" ~key:"idx" in
    let q = Workload.random_read_query rng in
    match Engine.query g q, Engine.query gi q with
    | Ok a, Ok b ->
      if not (Cypher_table.Table.bag_equal a.Engine.table b.Engine.table) then
        Alcotest.failf "round %d: index changed the result of %s" round q
    | Error _, Error _ -> ()
    | _ -> Alcotest.failf "round %d: index changed the outcome kind of %s" round q
  done

let fuzz_shortest_path_optimal () =
  (* on random graphs, shortestPath between two bound nodes must find the
     minimum length over all relationship-distinct paths *)
  let rng = Prng.create 4242 in
  for _round = 1 to 40 do
    let g =
      Generate.random_uniform
        ~seed:(Prng.int rng 1_000_000)
        ~nodes:(3 + Prng.int rng 5)
        ~rels:(1 + Prng.int rng 10) ~rel_types:[ "T" ] ~labels:[]
    in
    let lengths q =
      List.filter_map
        (fun row ->
          match Cypher_table.Record.find row "l" with
          | Some (Cypher_values.Value.Int n) -> Some n
          | _ -> None)
        (Cypher_table.Table.rows (Engine.run g q))
    in
    (* all path lengths between every ordered pair, and the shortest *)
    let all =
      lengths "MATCH (a)-[rs:T*]->(b) WHERE id(a) = 1 AND id(b) = 2 \
               RETURN size(rs) AS l"
    in
    let short =
      lengths
        "MATCH (a), (b) WHERE id(a) = 1 AND id(b) = 2 \
         MATCH p = shortestPath((a)-[:T*]->(b)) RETURN length(p) AS l"
    in
    match all, short with
    | [], [] -> ()
    | _ :: _, [ s ] ->
      let m = List.fold_left min max_int all in
      if s <> m then
        Alcotest.failf "shortestPath found %d but the minimum is %d" s m
    | [], _ :: _ -> Alcotest.fail "shortestPath invented a path"
    | _ :: _, [] -> Alcotest.fail "shortestPath missed an existing path"
    | _, _ -> Alcotest.fail "shortestPath returned several rows"
  done

let fuzz_update_scripts () =
  (* a random sequence of small updates must leave both engines with the
     same graph *)
  let rng = Prng.create 777 in
  let statements rng =
    List.init
      (2 + Prng.int rng 4)
      (fun _ ->
        match Prng.int rng 6 with
        | 0 -> Printf.sprintf "CREATE (:L%d {v: %d})" (Prng.int rng 3) (Prng.int rng 5)
        | 1 ->
          Printf.sprintf
            "MATCH (a:L%d), (b:L%d) CREATE (a)-[:T {w: %d}]->(b)"
            (Prng.int rng 3) (Prng.int rng 3) (Prng.int rng 9)
        | 2 -> Printf.sprintf "MATCH (n:L%d) SET n.v = n.v + 1" (Prng.int rng 3)
        | 3 -> Printf.sprintf "MATCH (n {v: %d}) DETACH DELETE n" (Prng.int rng 5)
        | 4 -> Printf.sprintf "MERGE (:M {k: %d})" (Prng.int rng 3)
        | _ ->
          Printf.sprintf "MATCH (n:L%d) REMOVE n.v SET n:Seen" (Prng.int rng 3))
  in
  for _round = 1 to 40 do
    let script = statements rng in
    let run mode =
      List.fold_left
        (fun g q ->
          match Engine.query ~mode g q with
          | Ok o -> o.Engine.graph
          | Error e -> Alcotest.failf "%s failed: %s" q (Engine.error_message e))
        Cypher_graph.Graph.empty script
    in
    let g_ref = run Engine.Reference and g_plan = run Engine.Planned in
    if not (Cypher_graph.Graph.equal_structure g_ref g_plan) then
      Alcotest.failf "engines built different graphs from:\n%s"
        (String.concat ";\n" script)
  done

let suite =
  [
    tc "engines agree on 150 random queries" fuzz_engines_agree;
    tc "shortestPath is optimal on 40 random graphs" fuzz_shortest_path_optimal;
    tc "update scripts build identical graphs in both engines" fuzz_update_scripts;
    tc "indexes never change results (60 random queries)" fuzz_indexes_transparent;
    tc "300 random expressions round-trip" fuzz_expressions_stable;
    tc "200 random queries parse and print" fuzz_queries_parse_and_print;
  ]

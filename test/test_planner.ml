(* Unit tests for the cost-based planner: plan shapes, start-point
   selection, orientation, relationship-uniqueness placement, and the
   EXPLAIN rendering. *)

open Helpers
open Cypher_gen
module Plan = Cypher_planner.Plan
module Build = Cypher_planner.Build
module Stats = Cypher_graph.Stats
module Engine = Cypher_engine.Engine

let compile ?(g = Paper_graphs.academic ()) q =
  match Cypher_parser.Parser.parse_query_exn q with
  | Cypher_ast.Ast.Q_single { sq_clauses; sq_return } ->
    (Build.compile_clauses ~stats:(Stats.collect g) ~visible:[] sq_clauses
       sq_return)
      .Build.plan
  | _ -> Alcotest.fail "expected a single query"

(* plan predicates *)
let rec plan_nodes plan =
  plan
  ::
  (match Plan.input_of plan with Some input -> plan_nodes input | None -> [])

let rec plan_nodes_deep plan =
  let own = plan_nodes plan in
  List.concat_map
    (function
      | Plan.Optional { inner; _ } as p -> p :: plan_nodes_deep inner
      | p -> [ p ])
    own

let has pred plan = List.exists pred (plan_nodes_deep plan)

let label_scan_chosen () =
  let plan = compile "MATCH (r:Researcher) RETURN r" in
  Alcotest.(check bool) "uses NodeByLabelScan" true
    (has (function Plan.Node_by_label_scan { label = "Researcher"; _ } -> true | _ -> false) plan);
  Alcotest.(check bool) "no AllNodesScan" false
    (has (function Plan.All_nodes_scan _ -> true | _ -> false) plan)

let orientation_prefers_smaller_side () =
  (* Researcher has 3 nodes, Publication 5: the chain should start from
     the Researcher end even though it is written on the left already;
     flip the pattern and it should still start from Researcher. *)
  let plan = compile "MATCH (p:Publication)<-[:AUTHORS]-(r:Researcher) RETURN p" in
  let rec leftmost plan =
    match Plan.input_of plan with Some input -> leftmost input | None -> plan
  in
  ignore (leftmost plan);
  Alcotest.(check bool) "scan on Researcher side" true
    (has
       (function
         | Plan.Node_by_label_scan { label = "Researcher"; _ } -> true
         | _ -> false)
       plan);
  Alcotest.(check bool) "no scan on Publication side" false
    (has
       (function
         | Plan.Node_by_label_scan { label = "Publication"; _ } -> true
         | _ -> false)
       plan)

let expand_direction () =
  let plan = compile "MATCH (r:Researcher)-[:AUTHORS]->(p) RETURN p" in
  Alcotest.(check bool) "expands outwards" true
    (has
       (function
         | Plan.Expand { dir = Plan.Out; types = [ "AUTHORS" ]; _ } -> true
         | _ -> false)
       plan)

let uniqueness_only_with_multiple_rels () =
  let one = compile "MATCH (a)-[:CITES]->(b) RETURN a" in
  Alcotest.(check bool) "single hop needs no uniqueness" false
    (has (function Plan.Rel_uniqueness _ -> true | _ -> false) one);
  let two = compile "MATCH (a)-[:CITES]->(b)-[:CITES]->(c) RETURN a" in
  Alcotest.(check bool) "two hops get a uniqueness check" true
    (has (function Plan.Rel_uniqueness _ -> true | _ -> false) two)

let optional_becomes_apply () =
  let plan =
    compile "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s) RETURN r, s"
  in
  Alcotest.(check bool) "OptionalApply present" true
    (has (function Plan.Optional _ -> true | _ -> false) plan)

let aggregation_plan () =
  let plan = compile "MATCH (n) RETURN labels(n) AS l, count(*) AS c" in
  Alcotest.(check bool) "EagerAggregation present" true
    (has (function Plan.Aggregate _ -> true | _ -> false) plan)

let var_length_plan () =
  let plan = compile "MATCH (a:Researcher)-[:CITES*1..3]->(b) RETURN b" in
  Alcotest.(check bool) "VarLengthExpand present" true
    (has
       (function
         | Plan.Var_expand { min_len = 1; max_len = Some 3; _ } -> true
         | _ -> false)
       plan)

let named_path_plan () =
  let plan = compile "MATCH p = (a)-[:CITES]->(b) RETURN p" in
  Alcotest.(check bool) "ProjectPath present" true
    (has (function Plan.Project_path { var = "p"; _ } -> true | _ -> false) plan)

let limit_sort_skip_plan () =
  let plan = compile "MATCH (n) RETURN n.acmid AS a ORDER BY a DESC SKIP 1 LIMIT 2" in
  let kinds =
    List.filter_map
      (function
        | Plan.Sort _ -> Some "sort"
        | Plan.Skip_rows _ -> Some "skip"
        | Plan.Limit_rows _ -> Some "limit"
        | _ -> None)
      (plan_nodes_deep plan)
  in
  Alcotest.(check (list string)) "limit above skip above sort"
    [ "limit"; "skip"; "sort" ] kinds

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  nl = 0 || scan 0

let explain_renders () =
  let g = Paper_graphs.academic () in
  match
    Engine.explain g
      "MATCH (r:Researcher)-[:AUTHORS]->(p) RETURN p.acmid AS a ORDER BY a"
  with
  | Ok text ->
    List.iter
      (fun needle ->
        Alcotest.(check bool) (needle ^ " in explain") true
          (contains_substring ~needle text))
      [ "NodeByLabelScan"; "Expand"; "Projection"; "Sort" ]
  | Error e -> Alcotest.fail (Engine.error_message e)

let update_queries_segment () =
  let g = Cypher_graph.Graph.empty in
  (* the read segment after CREATE is planned over the fields CREATE
     produces, as it is when the query runs: WITH * sees [a] *)
  List.iter
    (fun q ->
      match Engine.explain g q with
      | Ok text ->
        Alcotest.(check bool) (q ^ ": update step shown") true
          (contains_substring ~needle:"Update [" text);
        Alcotest.(check bool) (q ^ ": every segment planned") false
          (contains_substring ~needle:"not planned" text)
      | Error e -> Alcotest.fail (Engine.error_message e))
    [
      "CREATE (a:X) WITH a MATCH (b:X) RETURN count(*) AS c";
      "CREATE (a:X) WITH * MATCH (b:X) RETURN *";
    ]

let scan_rels_baseline_equivalent () =
  (* the B1 baseline (Expand by scanning all relationships) computes the
     same results as the adjacency-based Expand *)
  let g = Generate.random_uniform ~seed:17 ~nodes:12 ~rels:30 ~rel_types:[ "T" ] ~labels:[ "X" ] in
  let q = "MATCH (a:X)-[:T]->(b)-[:T]->(c) RETURN a, b, c" in
  let with_scan =
    match Cypher_parser.Parser.parse_query_exn q with
    | Cypher_ast.Ast.Q_single { sq_clauses; sq_return } ->
      let { Build.fields; prog; _ } =
        Build.compile_clauses ~stats:(Stats.collect g) ~scan_rels:true
          ~visible:[] sq_clauses sq_return
      in
      Cypher_planner.Exec.run cfg g ~fields prog Cypher_table.Table.unit
    | _ -> Alcotest.fail "unexpected query shape"
  in
  check_table_bag "scan baseline agrees" (run g q) with_scan

let cost_estimates_sane () =
  let g = Paper_graphs.academic () in
  let stats = Stats.collect g in
  let est q = (Cypher_planner.Cost.estimate stats (compile ~g q)).Cypher_planner.Cost.rows in
  (* a label scan estimates fewer rows than an all-nodes scan *)
  Alcotest.(check bool) "label scan cheaper" true
    (est "MATCH (r:Researcher) RETURN r" < est "MATCH (n) RETURN n");
  (* a limit caps the estimate *)
  Alcotest.(check bool) "limit caps rows" true
    (est "MATCH (n) RETURN n LIMIT 2" <= 2.);
  (* aggregation without keys estimates one row *)
  Alcotest.(check bool) "global aggregate is one row" true
    (est "MATCH (n) RETURN count(*) AS c" = 1.);
  (* explain text carries the estimates *)
  match Cypher_engine.Engine.explain g "MATCH (r:Researcher) RETURN r" with
  | Ok text ->
    Alcotest.(check bool) "estimate shown" true
      (contains_substring ~needle:"est." text)
  | Error e -> Alcotest.fail (Engine.error_message e)

let run_script_threads_graph () =
  match
    Cypher_engine.Engine.run_script Cypher_graph.Graph.empty
      "CREATE (:A {v: 1}); CREATE (:A {v: 2}); // comment with ; inside\n       MATCH (n:A) RETURN count(*) AS c"
  with
  | Ok outcome ->
    check_table_bag "script result"
      (table [ "c" ] [ [ ("c", Cypher_values.Value.Int 2) ] ])
      outcome.Cypher_engine.Engine.table
  | Error e -> Alcotest.fail e

let script_respects_strings () =
  match
    Cypher_engine.Engine.run_script Cypher_graph.Graph.empty
      "CREATE (:A {s: 'semi;colon'}); MATCH (n:A) RETURN n.s AS s"
  with
  | Ok outcome ->
    check_table_bag "string with semicolon survives"
      (table [ "s" ] [ [ ("s", Cypher_values.Value.String "semi;colon") ] ])
      outcome.Cypher_engine.Engine.table
  | Error e -> Alcotest.fail e

(* A semicolon inside a block comment or a backtick identifier does not
   end the statement. *)
let script_respects_block_comments () =
  match
    Cypher_engine.Engine.run_script Cypher_graph.Graph.empty
      "RETURN 1 /* a; b */ AS x"
  with
  | Ok outcome ->
    check_table_bag "comment with semicolon skipped"
      (table [ "x" ] [ [ ("x", Cypher_values.Value.Int 1) ] ])
      outcome.Cypher_engine.Engine.table
  | Error e -> Alcotest.fail e

let script_respects_backticks () =
  match
    Cypher_engine.Engine.run_script Cypher_graph.Graph.empty
      "RETURN 1 AS `a;b`"
  with
  | Ok outcome ->
    check_table_bag "backtick identifier with semicolon survives"
      (table [ "a;b" ] [ [ ("a;b", Cypher_values.Value.Int 1) ] ])
      outcome.Cypher_engine.Engine.table
  | Error e -> Alcotest.fail e

let profile_reports_actuals () =
  let g = Paper_graphs.academic () in
  match
    Engine.profile g
      "MATCH (r:Researcher)-[:AUTHORS]->(p:Publication) RETURN count(*) AS c"
  with
  | Ok text ->
    Alcotest.(check bool) "actual rows shown" true
      (contains_substring ~needle:"actual" text);
    Alcotest.(check bool) "label scan produced 3" true
      (contains_substring ~needle:"NodeByLabelScan (r:Researcher)" text
      && contains_substring ~needle:"actual 3 rows" text)
  | Error e -> Alcotest.fail (Engine.error_message e)

let profile_and_run_agree () =
  (* profiling must not change results *)
  let g = Paper_graphs.academic () in
  let q = "MATCH (a)-[:CITES*]->(b) RETURN count(*) AS c" in
  match Cypher_parser.Parser.parse_query_exn q with
  | Cypher_ast.Ast.Q_single { sq_clauses; sq_return } ->
    let { Build.fields; prog; _ } =
      Build.compile_clauses ~stats:(Stats.collect g) ~visible:[] sq_clauses
        sq_return
    in
    let plain = Cypher_planner.Exec.run cfg g ~fields prog Cypher_table.Table.unit in
    let profiled, _counts =
      Cypher_planner.Exec.run_profiled cfg g ~fields prog Cypher_table.Table.unit
    in
    check_table_bag "profiled result identical" plain profiled
  | _ -> Alcotest.fail "bad query"

let limit_short_circuits () =
  (* the Volcano pipeline is lazy: with LIMIT 1 the scan below must not
     enumerate the whole 500-node graph — PROFILE's actual counts show
     how many rows each operator produced *)
  let g = Generate.chain ~n:500 ~rel_type:"T" in
  match Cypher_parser.Parser.parse_query_exn "MATCH (n) RETURN n LIMIT 1" with
  | Cypher_ast.Ast.Q_single { sq_clauses; sq_return } ->
    let { Build.plan; fields; prog } =
      Build.compile_clauses ~stats:(Stats.collect g) ~visible:[] sq_clauses
        sq_return
    in
    let _table, actual =
      Cypher_planner.Exec.run_profiled cfg g ~fields prog
        Cypher_table.Table.unit
    in
    let rec find_scan p =
      match p with
      | Plan.All_nodes_scan _ -> Some p
      | _ -> Option.bind (Plan.input_of p) find_scan
    in
    (match find_scan plan with
    | Some scan ->
      Alcotest.(check int) "scan produced exactly one row" 1
        (actual scan).Cypher_planner.Exec.prof_rows
    | None -> Alcotest.fail "expected an AllNodesScan")
  | _ -> Alcotest.fail "bad query"

let explain_profile_prefixes () =
  let g = Paper_graphs.academic () in
  (match Cypher_engine.Engine.query g "EXPLAIN MATCH (n:Researcher) RETURN n" with
  | Ok o ->
    Alcotest.(check (list string)) "plan column" [ "plan" ]
      (Cypher_table.Table.fields o.Cypher_engine.Engine.table);
    Alcotest.(check bool) "has rows" true
      (Cypher_table.Table.row_count o.Cypher_engine.Engine.table > 0)
  | Error e -> Alcotest.fail (Engine.error_message e));
  (match Cypher_engine.Engine.query g "PROFILE MATCH (n) RETURN count(*) AS c" with
  | Ok o ->
    Alcotest.(check bool) "profile produced a plan" true
      (Cypher_table.Table.row_count o.Cypher_engine.Engine.table > 0)
  | Error e -> Alcotest.fail (Engine.error_message e));
  (* typed errors *)
  match Cypher_engine.Engine.query Cypher_graph.Graph.empty "RETURN x" with
  | Error (Cypher_engine.Engine.Syntax_error _) -> ()
  | Error e -> Alcotest.failf "wrong error kind: %s" (Engine.error_message e)
  | Ok _ -> Alcotest.fail "expected an error"

let stress_scale () =
  (* a 20k-node graph: build, index, and run a few queries; this guards
     against accidental quadratic blowups and stack overflows *)
  let g = Generate.chain ~n:20_000 ~rel_type:"NEXT" in
  let g = Cypher_graph.Graph.create_index g ~label:"Node" ~key:"idx" in
  let count q =
    match
      Cypher_table.Table.rows (Cypher_engine.Engine.run g q)
    with
    | [ row ] -> (
      match Cypher_table.Record.find row "c" with
      | Some (Cypher_values.Value.Int n) -> n
      | _ -> -1)
    | _ -> -1
  in
  Alcotest.(check int) "node count" 20_000 (count "MATCH (n) RETURN count(*) AS c");
  Alcotest.(check int) "indexed point lookup" 1
    (count "MATCH (n:Node {idx: 12345}) RETURN count(*) AS c");
  Alcotest.(check int) "three-hop walk" 19_997
    (count "MATCH (a)-[:NEXT]->()-[:NEXT]->()-[:NEXT]->(d) RETURN count(*) AS c");
  Alcotest.(check int) "bounded var-length from one end" 50
    (count "MATCH (a:Node {idx: 1})-[:NEXT*1..50]->(b) RETURN count(*) AS c")

let rel_type_scan_chosen () =
  let g = Paper_graphs.academic () in
  let plan = compile ~g "MATCH (a)-[r:SUPERVISES]->(b) RETURN a, b" in
  Alcotest.(check bool) "RelationshipTypeScan chosen" true
    (has (function Plan.Rel_type_scan _ -> true | _ -> false) plan);
  (* anchored patterns keep the scan+expand shape *)
  let plan2 = compile ~g "MATCH (a:Researcher)-[r:SUPERVISES]->(b) RETURN b" in
  Alcotest.(check bool) "anchored pattern has no type scan" false
    (has (function Plan.Rel_type_scan _ -> true | _ -> false) plan2)

let rel_type_scan_agrees () =
  let g = Generate.random_uniform ~seed:5 ~nodes:10 ~rels:30 ~rel_types:[ "A"; "B" ] ~labels:[] in
  List.iter
    (fun q ->
      match Cypher_engine.Engine.cross_check g q with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [
      "MATCH (a)-[r:A]->(b) RETURN a, r, b";
      "MATCH (a)<-[r:A]-(b) RETURN a, r, b";
      "MATCH (a)-[r:A]-(b) RETURN a, r, b";
      "MATCH (a)-[r:A|B]-(b) RETURN count(*) AS c";
      "MATCH (a)-[r:A]->(b)-[s:B]->(c) RETURN count(*) AS c";
    ]

let annotate_order () =
  let g = Paper_graphs.academic () in
  let plan = compile ~g "MATCH (r:Researcher)-[:AUTHORS]->(p) RETURN p" in
  let annotated = Cypher_planner.Cost.annotate (Stats.collect g) plan in
  (* root first, Argument last, one entry per operator on the spine *)
  Alcotest.(check bool) "root first" true
    (match annotated with (root, _) :: _ -> root == plan | [] -> false);
  (match List.rev annotated with
  | (Plan.Argument, e) :: _ ->
    Alcotest.(check bool) "argument estimates one row" true (e.Cypher_planner.Cost.rows = 1.)
  | _ -> Alcotest.fail "expected Argument as the leaf")

(* A path whose only bound node is interior starts there: the prefix is
   expanded reversed from it, then the suffix.  On a chain of [F]
   relationships the plan has one leaf, for [x], and its expansions read
   [x]'s adjacency only, so their db hits stay at [x]'s degree while a
   relationship-type scan would read every [F]. *)
let interior_bound_start () =
  let g =
    (Engine.run_exn Cypher_graph.Graph.empty
       "UNWIND range(1, 50) AS i CREATE (:P {k: i}) WITH count(*) AS c \
        MATCH (a:P), (b:P) WHERE b.k = a.k + 1 CREATE (a)-[:F]->(b)")
      .Engine.graph
  in
  let q = "MATCH (x:P {k: 5}) MATCH (a)-[:F]->(x)-[:F]->(b) RETURN a.k, b.k" in
  (match Engine.explain g q with
  | Ok text ->
    Alcotest.(check bool) "no RelationshipTypeScan" false
      (contains_substring ~needle:"RelationshipTypeScan" text)
  | Error e -> Alcotest.fail (Engine.error_message e));
  let { Build.plan; fields; prog } =
    match Cypher_parser.Parser.parse_query_exn q with
    | Cypher_ast.Ast.Q_single { sq_clauses; sq_return } ->
      Build.compile_clauses ~stats:(Stats.collect g) ~visible:[] sq_clauses
        sq_return
    | _ -> Alcotest.fail "expected a single query"
  in
  let leaves =
    List.filter_map
      (function
        | Plan.All_nodes_scan { var; _ }
        | Plan.Node_by_label_scan { var; _ }
        | Plan.Node_index_seek { var; _ } ->
          Some var
        | Plan.Rel_type_scan { rel; _ } -> Some rel
        | _ -> None)
      (plan_nodes_deep plan)
  in
  Alcotest.(check (list string)) "one leaf, for x" [ "x" ] leaves;
  let result, prof =
    Cypher_planner.Exec.run_profiled cfg g ~fields prog Cypher_table.Table.unit
  in
  check_table_bag "the neighbours of x"
    (table [ "a.k"; "b.k" ] [ [ ("a.k", vint 4); ("b.k", vint 6) ] ])
    result;
  let expand_hits =
    List.fold_left
      (fun acc node ->
        match node with
        | Plan.Expand _ ->
          acc + (Cypher_planner.Exec.self_profile prof node).Cypher_planner.Exec.prof_hits
        | _ -> acc)
      0 (plan_nodes_deep plan)
  in
  let degree =
    Cypher_graph.Graph.degree g
      (List.find
         (fun n ->
           Cypher_values.Value.equal_total
             (Cypher_graph.Graph.node_prop g n "k")
             (vint 5))
         (Cypher_graph.Graph.nodes g))
      `Both
  in
  Alcotest.(check bool)
    (Printf.sprintf "expansions read x's adjacency only (%d hits, degree %d)"
       expand_hits degree)
    true
    (expand_hits > 0 && expand_hits <= 2 * degree)

let suite =
  [
    tc "cost estimates are sane" cost_estimates_sane;
    tc "Cost.annotate covers the plan spine" annotate_order;
    tc "relationship-type scan chosen when unanchored" rel_type_scan_chosen;
    tc "relationship-type scan agrees with the reference" rel_type_scan_agrees;
    tc "EXPLAIN/PROFILE query prefixes and typed errors" explain_profile_prefixes;
    tc "20k-node stress" stress_scale;
    tc "LIMIT short-circuits the lazy pipeline" limit_short_circuits;
    tc "PROFILE reports actual row counts" profile_reports_actuals;
    tc "profiling does not change results" profile_and_run_agree;
    tc "run_script threads the graph" run_script_threads_graph;
    tc "run_script respects string literals" script_respects_strings;
    tc "run_script respects block comments" script_respects_block_comments;
    tc "run_script respects backtick identifiers" script_respects_backticks;
    tc "label scan chosen over all-nodes scan" label_scan_chosen;
    tc "orientation starts from the smaller side" orientation_prefers_smaller_side;
    tc "expand direction" expand_direction;
    tc "a bound interior node starts the path" interior_bound_start;
    tc "relationship uniqueness placement" uniqueness_only_with_multiple_rels;
    tc "OPTIONAL MATCH compiles to OptionalApply" optional_becomes_apply;
    tc "aggregation compiles to EagerAggregation" aggregation_plan;
    tc "variable length compiles to VarLengthExpand" var_length_plan;
    tc "named paths compile to ProjectPath" named_path_plan;
    tc "limit/skip/sort stacking order" limit_sort_skip_plan;
    tc "EXPLAIN renders the operator tree" explain_renders;
    tc "update clauses appear as plan segments" update_queries_segment;
    tc "scan-rels baseline is semantically equivalent" scan_rels_baseline_equivalent;
  ]

(* Unit tests for the reference semantics beyond the paper's worked
   examples: the match(π̄, G, u) API, cross-variable property constraints
   in patterns, expression corner cases, and configuration. *)

open Helpers
open Cypher_values
open Cypher_table
open Cypher_gen
module Eval = Cypher_semantics.Eval
module Config = Cypher_semantics.Config

let parse_pattern = Cypher_parser.Parser.parse_pattern_exn
let parse_expr = Cypher_parser.Parser.parse_expr_exn

let eval ?(g = Cypher_graph.Graph.empty) ?(u = Record.empty) e =
  Eval.eval_expr cfg g u (parse_expr e)

let match_api_returns_new_bindings_only () =
  let g = Paper_graphs.teachers () in
  let u = record [ ("x", vnode 1); ("unrelated", vint 5) ] in
  let out =
    Eval.match_pattern_tuple cfg g u (parse_pattern "(x)-[r:KNOWS]->(y)")
  in
  (match out with
  | [ u' ] ->
    Alcotest.(check (list string)) "domain is free(π) − dom(u)" [ "r"; "y" ]
      (Record.dom u');
    check_value "y bound" (vnode 2) (Record.find_or_null u' "y")
  | _ -> Alcotest.failf "expected exactly one match, got %d" (List.length out))

let match_multiplicity_is_per_combination () =
  let g = Paper_graphs.teachers () in
  let out =
    Eval.match_pattern_tuple cfg g Record.empty
      (parse_pattern "(x:Teacher)-[:KNOWS*1..2]->()-[:KNOWS*1..2]->(y:Teacher)")
  in
  Alcotest.(check int) "three occurrences (Example 4.5)" 3 (List.length out)

let cross_variable_pattern_property () =
  (* the property of the first node refers to a variable bound later in
     the same pattern: the check must be deferred, not dropped *)
  let g = Cypher_graph.Graph.empty in
  let { Cypher_engine.Engine.graph = g; _ } =
    Cypher_engine.Engine.run_exn g
      "CREATE ({v: 1})-[:T]->({v: 1}), ({v: 2})-[:T]->({v: 3})"
  in
  expect_bag g
    "MATCH (a {v: b.v})-[:T]->(b) RETURN a.v AS av, b.v AS bv"
    [ "av"; "bv" ]
    [ [ ("av", vint 1); ("bv", vint 1) ] ]

let tuple_shares_edge_budget () =
  (* across the two paths of one MATCH, a relationship may be used once *)
  let g = Paper_graphs.teachers () in
  let out =
    Eval.match_pattern_tuple cfg g Record.empty
      (parse_pattern "(a)-[r1:KNOWS]->(b), (c)-[r2:KNOWS]->(d)")
  in
  (* 3 relationships, ordered pairs of distinct rels: 3 * 2 = 6 *)
  Alcotest.(check int) "pairs of distinct relationships" 6 (List.length out)

let morphism_config_changes_results () =
  let g, _, _ = Paper_graphs.self_loop () in
  let count config pattern =
    List.length (Eval.match_pattern_tuple config g Record.empty (parse_pattern pattern))
  in
  Alcotest.(check int) "edge-iso pair shares budget" 0
    (count cfg "(a)-[r1]->(b), (c)-[r2]->(d)");
  let homo = Config.{ cfg with morphism = Homomorphism; var_length_cap = Some 4 } in
  Alcotest.(check int) "homomorphism allows reuse" 1
    (count homo "(a)-[r1]->(b), (c)-[r2]->(d)")

let quantifier_null_semantics () =
  check_value "all over null elements" vnull
    (eval "all(x IN [1, null] WHERE x > 0)");
  check_value "any finds true despite nulls" (vbool true)
    (eval "any(x IN [null, 1] WHERE x > 0)");
  check_value "none with a true is false" (vbool false)
    (eval "none(x IN [1] WHERE x > 0)");
  check_value "single with two trues is false" (vbool false)
    (eval "single(x IN [1, 2] WHERE x > 0)");
  check_value "quantifier over null list" vnull
    (eval "all(x IN null WHERE x > 0)")

let case_null_subject () =
  (* CASE null WHEN null: Cypher's simple CASE uses equality, and
     null = null is unknown, so the ELSE branch is taken *)
  check_value "simple case with null subject" (vstr "other")
    (eval "CASE null WHEN null THEN 'null!' ELSE 'other' END")

let nested_expressions () =
  check_value "comprehension over comprehension" (vlist [ vint 4; vint 16 ])
    (eval "[y IN [x IN [1, 2, 3, 4] WHERE x % 2 = 0] | y * y]");
  check_value "slice of a comprehension" (vlist [ vint 2 ])
    (eval "[x IN [1, 2, 3] | x][1..2]");
  check_value "deep map access" (vint 7)
    (eval "{a: {b: [{c: 7}]}}.a.b[0].c")

let arithmetic_null_and_errors () =
  check_value "null + 1" vnull (eval "null + 1");
  check_value "null * 2" vnull (eval "null * 2");
  check_value "number-string concatenation" (vstr "1a") (eval "1 + 'a'");
  (match eval "1 + [2]" with
  | Value.List _ -> ()
  | v -> Alcotest.failf "expected list append, got %a" Value.pp v);
  (match eval "true + 1" with
  | exception Value.Type_error _ -> ()
  | v -> Alcotest.failf "expected a type error, got %a" Value.pp v);
  check_value "unary minus of null" vnull (eval "-null")

let parameters_in_patterns_where () =
  let g = Paper_graphs.academic () in
  let config = Config.with_params [ ("min", vint 230) ] cfg in
  check_table_bag "param in WHERE"
    (table [ "a" ] [ [ ("a", vint 235) ]; [ ("a", vint 240) ]; [ ("a", vint 269) ] ])
    (run ~config g "MATCH (p:Publication) WHERE p.acmid >= $min RETURN p.acmid AS a")

let deeply_nested_where_patterns () =
  let g = Paper_graphs.academic () in
  expect_bag g
    "MATCH (r:Researcher) WHERE (r)-[:AUTHORS]->({acmid: 220}) RETURN r.name AS n"
    [ "n" ]
    [ [ ("n", vstr "Nils") ] ];
  expect_bag g
    "MATCH (r:Researcher) \
     WHERE size((r)-[:SUPERVISES]->()) = 2 RETURN r.name AS n"
    [ "n" ]
    [ [ ("n", vstr "Elin") ] ]

(* UNION joins only tables with the same fields: a static error in both
   engines and under EXPLAIN, not a failure at run time. *)
let union_field_mismatch_is_error () =
  let module Engine = Cypher_engine.Engine in
  let g = Cypher_graph.Graph.empty in
  List.iter
    (fun (mode, q) ->
      match Engine.query ~mode g q with
      | Error (Engine.Syntax_error _) -> ()
      | Ok _ -> Alcotest.failf "%S: expected a field mismatch error" q
      | Error e -> Alcotest.failf "%S: %s" q (Engine.error_message e))
    [
      (Engine.Planned, "RETURN 1 AS a UNION RETURN 2 AS b");
      (Engine.Reference, "RETURN 1 AS a UNION RETURN 2 AS b");
      (Engine.Planned, "RETURN 1 AS a UNION ALL RETURN 2 AS b");
      (Engine.Planned, "EXPLAIN RETURN 1 AS a UNION RETURN 2 AS b");
    ]

let with_star_extension () =
  expect_bag (Paper_graphs.teachers ())
    "MATCH (x:Teacher)-[:KNOWS]->(y) WITH *, 1 AS one RETURN x, y, one"
    [ "x"; "y"; "one" ]
    [
      [ ("x", vnode 1); ("y", vnode 2); ("one", vint 1) ];
      [ ("x", vnode 3); ("y", vnode 4); ("one", vint 1) ];
    ]

let zero_length_with_labels () =
  (* (a:X)-[*0..1]->(b:Y): a zero-length match requires b = a, so both
     label sets must hold on the same node *)
  let { Cypher_engine.Engine.graph = g; _ } =
    Cypher_engine.Engine.run_exn Cypher_graph.Graph.empty
      "CREATE (:X:Y {v: 1}), (:X {v: 2})-[:T]->(:Y {v: 3})"
  in
  expect_bag g
    "MATCH (a:X)-[:T*0..1]->(b:Y) RETURN a.v AS a, b.v AS b"
    [ "a"; "b" ]
    [
      [ ("a", vint 1); ("b", vint 1) ];
      [ ("a", vint 2); ("b", vint 3) ];
    ]

(* Variable-length and RPQ hops under each morphism, on a triangle
   a -A-> b -A-> c -A-> a with a self-loop a -B-> a.  Counted by hand:
   edge isomorphism never reuses a relationship; node isomorphism also
   never revisits a node (the start included), so the loop and every
   return to a are cut; homomorphism reuses both up to the hop bound,
   which for an unbounded regex is [var_length_cap]. *)
let morphisms_on_variable_length_hops () =
  let { Cypher_engine.Engine.graph = g; _ } =
    Cypher_engine.Engine.run_exn Cypher_graph.Graph.empty
      "CREATE (a:N {name:'a'})-[:A]->(b:N {name:'b'})-[:A]->(c:N \
       {name:'c'})-[:A]->(a), (a)-[:B]->(a)"
  in
  let count config hop =
    let q =
      Printf.sprintf "MATCH (x {name:'a'})%s(y) RETURN count(*) AS c" hop
    in
    match Table.rows (run ~config g q) with
    | [ row ] -> (
      match Record.find_or_null row "c" with
      | Value.Int c -> c
      | v -> Alcotest.failf "%s: count is %a" q Value.pp v)
    | _ -> Alcotest.failf "%s: expected one row" q
  in
  let edge = cfg
  and node = Config.with_morphism Config.Node_isomorphism cfg
  and homo =
    Config.{ cfg with morphism = Homomorphism; var_length_cap = Some 3 }
  in
  List.iter
    (fun (hop, e, n, h) ->
      Alcotest.(check int) ("edge isomorphism " ^ hop) e (count edge hop);
      Alcotest.(check int) ("node isomorphism " ^ hop) n (count node hop);
      Alcotest.(check int) ("homomorphism " ^ hop) h (count homo hop))
    [
      ("-[*1..3]->", 6, 2, 9);
      ("-[*]->", 8, 2, 9);
      ("-[*1..2]-", 7, 4, 10);
      ("-[:(B* A)]->", 2, 1, 3);
      ("-[:(A+)]-", 6, 4, 14);
    ]

(* --- float → integer conversion guards -------------------------------- *)

let to_integer_edges () =
  let module Engine = Cypher_engine.Engine in
  let g = Cypher_graph.Graph.empty in
  expect_bag g "RETURN toInteger(2.9) AS i" [ "i" ] [ [ ("i", vint 2) ] ];
  expect_bag g "RETURN toInteger(-2.9) AS i" [ "i" ] [ [ ("i", vint (-2)) ] ];
  expect_bag g "RETURN toInteger('1e3') AS i" [ "i" ] [ [ ("i", vint 1000) ] ];
  expect_bag g "RETURN toInteger(4.0e18) AS i" [ "i" ]
    [ [ ("i", vint 4_000_000_000_000_000_000) ] ];
  (* beyond the 63-bit range, NaN, infinities: deterministic errors, not
     hardware truncation garbage *)
  List.iter
    (fun q ->
      match Engine.query g q with
      | Error (Engine.Runtime_error _) -> ()
      | Error e ->
        Alcotest.failf "%S: expected a runtime error, got %S" q
          (Engine.error_message e)
      | Ok _ -> Alcotest.failf "%S: expected an error" q)
    [
      "RETURN toInteger(1e300)";
      "RETURN toInteger(-1e300)";
      "RETURN toInteger(1.0/0.0)";
      "RETURN toInteger(-1.0/0.0)";
      "RETURN toInteger(0.0/0.0)";
      "RETURN toInteger('1e300')";
      "RETURN toInteger(9.3e18)";
    ];
  (* the float below the 2^62 boundary still converts *)
  expect_bag g "RETURN toInteger(-4.611686018427387904e18) AS i" [ "i" ]
    [ [ ("i", vint (-4611686018427387904)) ] ]

(* --- percentile argument guard ---------------------------------------- *)

let percentile_non_finite () =
  let module Engine = Cypher_engine.Engine in
  let g = Cypher_graph.Graph.empty in
  List.iter
    (fun q ->
      List.iter
        (fun mode ->
          match Engine.query ~mode g q with
          | Error (Engine.Type_error "percentile must be between 0.0 and 1.0")
            ->
            ()
          | Error e ->
            Alcotest.failf "%S: expected the percentile range error, got %S" q
              (Engine.error_message e)
          | Ok _ -> Alcotest.failf "%S: expected an error" q)
        [ Engine.Reference; Engine.Planned ])
    [
      (* NaN slips through a [pct < 0 || pct > 1] check — the guard must
         reject every non-finite percentile in both variants *)
      "UNWIND [1,2,3] AS x RETURN percentileCont(x, 0.0/0.0)";
      "UNWIND [1,2,3] AS x RETURN percentileDisc(x, 0.0/0.0)";
      "UNWIND [1,2,3] AS x RETURN percentileCont(x, 1.0/0.0)";
      "UNWIND [1,2,3] AS x RETURN percentileDisc(x, -1.0/0.0)";
    ];
  (* the boundaries themselves remain valid *)
  expect_bag g "UNWIND [1,2,3] AS x RETURN percentileCont(x, 0.0) AS p"
    [ "p" ]
    [ [ ("p", Value.Float 1.) ] ];
  expect_bag g "UNWIND [1,2,3] AS x RETURN percentileDisc(x, 1.0) AS p"
    [ "p" ]
    [ [ ("p", vint 3) ] ]

let suite =
  [
    tc "match() returns only new bindings" match_api_returns_new_bindings_only;
    tc "match() multiplicity per (pattern, path)" match_multiplicity_is_per_combination;
    tc "cross-variable property constraints are deferred" cross_variable_pattern_property;
    tc "pattern tuples share the edge budget" tuple_shares_edge_budget;
    tc "morphism configuration changes results" morphism_config_changes_results;
    tc "quantifier null semantics" quantifier_null_semantics;
    tc "CASE with null subject" case_null_subject;
    tc "nested expressions" nested_expressions;
    tc "arithmetic null propagation and type errors" arithmetic_null_and_errors;
    tc "parameters in WHERE" parameters_in_patterns_where;
    tc "pattern predicates with properties" deeply_nested_where_patterns;
    tc "UNION field mismatch is an error" union_field_mismatch_is_error;
    tc "WITH star extension" with_star_extension;
    tc "zero-length hop with labels on both ends" zero_length_with_labels;
    tc "variable-length and regex hops under each morphism"
      morphisms_on_variable_length_hops;
    tc "toInteger edge values" to_integer_edges;
    tc "non-finite percentiles are rejected" percentile_non_finite;
  ]

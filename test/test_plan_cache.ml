(* Regression tests for the hot-path execution layer: the session plan
   cache (hits, version-based invalidation, parameter transparency), the
   SKIP/LIMIT count validation, and Var_expand with min_len = 0 under a
   type filter. *)

open Helpers
open Cypher_values
open Cypher_table
module Graph = Cypher_graph.Graph
module Engine = Cypher_engine.Engine
module Session = Cypher_session.Session

let get_count table =
  match Table.rows table with
  | [ row ] -> (
    match Record.find row "c" with
    | Some (Value.Int n) -> n
    | _ -> Alcotest.fail "expected an integer column c")
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let run_ok s q =
  match Session.run s q with
  | Ok t -> t
  | Error e ->
    Alcotest.failf "session run %S failed: %s" q (Engine.error_message e)

let cache_hit_and_invalidation () =
  let s = Session.create Graph.empty in
  ignore (run_ok s "CREATE (:P {v: 1})");
  ignore (run_ok s "CREATE (:P {v: 2})");
  let q = "MATCH (p:P) RETURN count(p) AS c" in
  Alcotest.(check int) "first run" 2 (get_count (run_ok s q));
  Alcotest.(check int) "cached run" 2 (get_count (run_ok s q));
  let st = Session.cache_stats s in
  Alcotest.(check bool) "at least one cache hit" true
    (st.Engine.cache_hits >= 1);
  Alcotest.(check int) "no replan while the graph is unchanged" 0
    st.Engine.cache_replans;
  (* an update changes the cardinalities: the same query must replan and
     see the new row *)
  ignore (run_ok s "CREATE (:P {v: 3})");
  Alcotest.(check int) "after CREATE" 3 (get_count (run_ok s q));
  let st = Session.cache_stats s in
  Alcotest.(check int) "exactly one replan" 1 st.Engine.cache_replans;
  (* and a second post-update run hits the refreshed plan *)
  Alcotest.(check int) "cached again" 3 (get_count (run_ok s q));
  Alcotest.(check int) "still one replan" 1
    (Session.cache_stats s).Engine.cache_replans

let cache_sees_new_index () =
  let s = Session.create Graph.empty in
  ignore (run_ok s "UNWIND range(1, 50) AS i CREATE (:N {idx: i})");
  let q = "MATCH (n:N {idx: 7}) RETURN count(n) AS c" in
  Alcotest.(check int) "scan plan" 1 (get_count (run_ok s q));
  (* index DDL bumps the graph version *)
  ignore (run_ok s "CREATE INDEX ON :N(idx)");
  Alcotest.(check int) "seek plan, same answer" 1 (get_count (run_ok s q));
  Alcotest.(check bool) "replanned for the index" true
    ((Session.cache_stats s).Engine.cache_replans >= 1)

let cache_is_parameter_transparent () =
  let s = Session.create ~params:[ ("x", vint 1) ] Graph.empty in
  ignore (run_ok s "CREATE (:P {v: 1}), (:P {v: 2}), (:P {v: 2})");
  let q = "MATCH (p:P) WHERE p.v = $x RETURN count(p) AS c" in
  Alcotest.(check int) "x = 1" 1 (get_count (run_ok s q));
  (* same parameter names, new value: the cached plan must be re-evaluated
     with the new binding, not replay the old answer *)
  Session.set_params s [ ("x", vint 2) ];
  Alcotest.(check int) "x = 2" 2 (get_count (run_ok s q));
  (* the key is the text alone: binding an extra, unused parameter still
     hits the cached entry and still answers from the live bindings *)
  let hits = (Session.cache_stats s).Engine.cache_hits in
  Session.set_params s [ ("x", vint 1); ("unused", vint 9) ];
  Alcotest.(check int) "x = 1 beside an unused parameter" 1
    (get_count (run_ok s q));
  Alcotest.(check int) "an unused parameter still hits" (hits + 1)
    (Session.cache_stats s).Engine.cache_hits

let cache_respects_transactions () =
  let s = Session.create Graph.empty in
  ignore (run_ok s "CREATE (:P)");
  let q = "MATCH (p:P) RETURN count(p) AS c" in
  Alcotest.(check int) "before tx" 1 (get_count (run_ok s q));
  Session.begin_tx s;
  ignore (run_ok s "CREATE (:P)");
  Alcotest.(check int) "inside tx" 2 (get_count (run_ok s q));
  (match Session.rollback s with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Engine.error_message e));
  Alcotest.(check int) "after rollback" 1 (get_count (run_ok s q))

let negative_skip_limit_rejected () =
  let g, _ = Graph.add_node Graph.empty in
  let expect_rejected mode q =
    match Engine.query ~mode g q with
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%S reports a count error" q)
        true
        (let lower = String.lowercase_ascii (Engine.error_message e) in
         let contains sub =
           let n = String.length lower and m = String.length sub in
           let rec go i =
             i + m <= n && (String.sub lower i m = sub || go (i + 1))
           in
           go 0
         in
         contains "non-negative")
    | Ok _ -> Alcotest.failf "%S should be rejected" q
  in
  List.iter
    (fun mode ->
      expect_rejected mode "MATCH (n) RETURN n SKIP -1";
      expect_rejected mode "MATCH (n) RETURN n LIMIT -1";
      expect_rejected mode "MATCH (n) RETURN n SKIP -1 LIMIT 2")
    [ Engine.Planned; Engine.Reference ];
  (* both engines rejecting is agreement for the cross-check *)
  match Engine.cross_check g "MATCH (n) RETURN n LIMIT -1" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "engines disagree: %s" e

let zero_skip_limit_still_fine () =
  let g, _ = Graph.add_node Graph.empty in
  match Engine.query g "MATCH (n) RETURN n SKIP 0 LIMIT 0" with
  | Ok out -> Alcotest.(check int) "LIMIT 0" 0 (Table.row_count out.Engine.table)
  | Error e -> Alcotest.fail (Engine.error_message e)

let var_expand_zero_min_with_type_filter () =
  (* (a {k:1})-[:T]->(b), (a)-[:U]->(c): *0..1 over :T must produce the
     zero-length match (y = a, ignoring the type filter) plus b, never c. *)
  let g = Graph.empty in
  let g, a = Graph.add_node ~props:[ ("k", vint 1) ] g in
  let g, b = Graph.add_node g in
  let g, c = Graph.add_node g in
  let g, _ = Graph.add_rel ~src:a ~tgt:b ~rel_type:"T" g in
  let g, _ = Graph.add_rel ~src:a ~tgt:c ~rel_type:"U" g in
  let q = "MATCH ({k: 1})-[:T*0..1]->(y) RETURN y" in
  let expected =
    table [ "y" ]
      [
        [ ("y", Value.Node a) ];
        [ ("y", Value.Node b) ];
      ]
  in
  check_table_bag "planned engine" expected
    (Engine.run ~mode:Engine.Planned g q);
  (match Engine.cross_check g q with
  | Ok t -> check_table_bag "cross-check table" expected t
  | Error e -> Alcotest.fail e);
  ignore c

let string_scalar_concatenation () =
  let g = Graph.empty in
  let eval q =
    match Table.rows (Engine.run g (Printf.sprintf "RETURN %s AS v" q)) with
    | [ row ] -> Record.find_or_null row "v"
    | _ -> Alcotest.fail "expected one row"
  in
  check_value "'a' + 1" (vstr "a1") (eval "'a' + 1");
  check_value "1 + 'a'" (vstr "1a") (eval "1 + 'a'");
  check_value "'a' + 1.5" (vstr "a1.5") (eval "'a' + 1.5");
  check_value "'a' + true" (vstr "atrue") (eval "'a' + true");
  check_value "false + 'a'" (vstr "falsea") (eval "false + 'a'");
  check_value "null propagation left" vnull (eval "null + 'a'");
  check_value "null propagation right" vnull (eval "'a' + null");
  check_value "string + string unchanged" (vstr "ab") (eval "'a' + 'b'")

let table_append_is_persistent () =
  let row i = record [ ("a", vint i) ] in
  let t0 = Table.empty ~fields:[ "a" ] in
  (* linear chain: shares one buffer, appends in place *)
  let t3 =
    List.fold_left (fun t i -> Table.add_row t (row i)) t0 [ 1; 2; 3 ]
  in
  Alcotest.(check int) "chain length" 3 (Table.row_count t3);
  (* branching from an interior version must not disturb the sibling *)
  let t1 = Table.add_row t0 (row 1) in
  let t2 = Table.add_row t1 (row 2) in
  let t2' = Table.add_row t1 (row 9) in
  check_table_ordered "first branch" (table [ "a" ] [ [ ("a", vint 1) ]; [ ("a", vint 2) ] ]) t2;
  check_table_ordered "second branch"
    (table [ "a" ] [ [ ("a", vint 1) ]; [ ("a", vint 9) ] ])
    t2';
  (* appending to a skipped/limited window copies, leaving the base intact *)
  let w = Table.limit (Table.skip t3 1) 1 in
  let w' = Table.add_row w (row 7) in
  Alcotest.(check int) "base survives" 3 (Table.row_count t3);
  check_table_ordered "window + append"
    (table [ "a" ] [ [ ("a", vint 2) ]; [ ("a", vint 7) ] ])
    w';
  Alcotest.check_raises "uniformity still checked"
    (Invalid_argument
       "Table: row (b: 1) does not match fields [a]")
    (fun () -> ignore (Table.add_row t0 (record [ ("b", vint 1) ])))

let table_append_linear_cost () =
  (* 20k appends complete instantly with the buffered representation;
     the old @-append representation needed ~400M list cells. *)
  let row i = record [ ("a", vint i) ] in
  let n = 20_000 in
  let t = ref (Table.empty ~fields:[ "a" ]) in
  for i = 1 to n do
    t := Table.add_row !t (row i)
  done;
  Alcotest.(check int) "all rows present" n (Table.row_count !t);
  match Table.rows (Table.limit (Table.skip !t (n - 1)) 1) with
  | [ r ] -> check_value "last row" (vint n) (Record.find_or_null r "a")
  | _ -> Alcotest.fail "windowing broke"

let suite =
  [
    tc "cache hit, then CREATE forces a replan" cache_hit_and_invalidation;
    tc "index DDL invalidates cached plans" cache_sees_new_index;
    tc "parameter rebinding is transparent" cache_is_parameter_transparent;
    tc "cache agrees with transactions and rollback" cache_respects_transactions;
    tc "negative SKIP/LIMIT is a query error" negative_skip_limit_rejected;
    tc "SKIP 0 and LIMIT 0 still work" zero_skip_limit_still_fine;
    tc "var-expand min_len=0 with a type filter" var_expand_zero_min_with_type_filter;
    tc "string + scalar concatenation" string_scalar_concatenation;
    tc "table append is persistent across branches" table_append_is_persistent;
    tc "table append is linear-time" table_append_linear_cost;
  ]

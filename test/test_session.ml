(* Tests for the session / transaction layer over the persistent store. *)

open Helpers
module Session = Cypher_session.Session
module Engine = Cypher_engine.Engine
module Schema = Cypher_schema.Schema
module Graph = Cypher_graph.Graph

let run_ok sess q =
  match Session.run sess q with
  | Ok t -> t
  | Error e -> Alcotest.failf "%s failed: %s" q (Engine.error_message e)

let node_count sess = Graph.node_count (Session.graph sess)

let autocommit () =
  let sess = Session.create Graph.empty in
  ignore (run_ok sess "CREATE (:A)");
  ignore (run_ok sess "CREATE (:B)");
  Alcotest.(check int) "two nodes" 2 (node_count sess);
  Alcotest.(check bool) "no transaction open" false (Session.in_transaction sess)

let rollback_restores () =
  let sess = Session.create Graph.empty in
  ignore (run_ok sess "CREATE (:Base)");
  Session.begin_tx sess;
  ignore (run_ok sess "CREATE (:Temp1)");
  ignore (run_ok sess "CREATE (:Temp2)");
  Alcotest.(check int) "changes visible inside tx" 3 (node_count sess);
  ok_or_fail (Session.rollback sess);
  Alcotest.(check int) "rolled back" 1 (node_count sess);
  (* the session still works after rollback *)
  ignore (run_ok sess "CREATE (:After)");
  Alcotest.(check int) "after rollback" 2 (node_count sess)

let commit_keeps () =
  let sess = Session.create Graph.empty in
  Session.begin_tx sess;
  ignore (run_ok sess "CREATE (:X)");
  ok_or_fail (Session.commit sess);
  Alcotest.(check int) "committed" 1 (node_count sess)

let nested_transactions () =
  let sess = Session.create Graph.empty in
  Session.begin_tx sess;
  ignore (run_ok sess "CREATE (:Outer)");
  Session.begin_tx sess;
  ignore (run_ok sess "CREATE (:Inner)");
  Alcotest.(check int) "depth" 2 (Session.depth sess);
  ok_or_fail (Session.rollback sess);
  Alcotest.(check int) "inner rolled back" 1 (node_count sess);
  ok_or_fail (Session.commit sess);
  Alcotest.(check int) "outer committed" 1 (node_count sess);
  Alcotest.(check bool) "closed" false (Session.in_transaction sess)

let schema_on_autocommit () =
  let schema =
    Schema.(add (Node_property_unique { label = "U"; key = "k" }) empty)
  in
  let sess = Session.create ~schema Graph.empty in
  ignore (run_ok sess "CREATE (:U {k: 1})");
  (match Session.run sess "CREATE (:U {k: 1})" with
  | Ok _ -> Alcotest.fail "duplicate should be rejected"
  | Error _ -> ());
  Alcotest.(check int) "rejected statement left no trace" 1 (node_count sess)

let schema_deferred_to_commit () =
  (* inside a transaction, a temporary violation is fine as long as the
     commit state conforms *)
  let schema =
    Schema.(add (Node_property_exists { label = "P"; key = "name" }) empty)
  in
  let sess = Session.create ~schema Graph.empty in
  Session.begin_tx sess;
  ignore (run_ok sess "CREATE (:P)");
  (* violating intermediate state *)
  ignore (run_ok sess "MATCH (p:P) SET p.name = 'fixed'");
  ok_or_fail (Session.commit sess);
  Alcotest.(check int) "committed" 1 (node_count sess);
  (* and a commit that still violates rolls back *)
  Session.begin_tx sess;
  ignore (run_ok sess "CREATE (:P)");
  (match Session.commit sess with
  | Ok () -> Alcotest.fail "violating commit must fail"
  | Error _ -> ());
  Alcotest.(check int) "rolled back to conforming state" 1 (node_count sess)

let params_and_reads () =
  let sess = Session.create Graph.empty in
  Session.set_params sess [ ("n", vint 3) ];
  check_table_bag "parameterized read"
    (table [ "x" ] [ [ ("x", vint 1) ]; [ ("x", vint 2) ]; [ ("x", vint 3) ] ])
    (run_ok sess "UNWIND range(1, $n) AS x RETURN x")

(* Nested transactions merged into the outer frame must report exactly
   one commit whose delta is coalesced: each touched entity classified
   once, no duplicates from inner+outer frames, nothing from rolled-back
   inner frames. *)
let coalesced_commit_delta () =
  let commits = ref [] in
  let on_commit c = commits := c :: !commits in
  let sess = Session.create ~on_commit Graph.empty in
  ignore (run_ok sess "CREATE (:P {k: 1, v: 0})");
  Alcotest.(check int) "auto-commit reported" 1 (List.length !commits);
  commits := [];
  (* inner commit + outer commit: one report, four statements from two
     traced requests, the same node touched in both frames classified
     once *)
  let traced id q =
    Cypher_obs.Trace.with_context
      { Cypher_obs.Trace.trace_id = id; parent_span = 0 }
      (fun () -> ignore (run_ok sess q))
  in
  Session.begin_tx sess;
  traced 7 "CREATE (:P {k: 2, v: 0})";
  Session.begin_tx sess;
  traced 5 "MATCH (p:P {k: 1}) SET p.v = 1";
  traced 7 "MATCH (p:P {k: 2}) SET p.v = 1";
  traced 9 "MATCH (p:P {k: 2}) RETURN p.v";
  ok_or_fail (Session.commit sess);
  ignore (run_ok sess "MATCH (p:P {k: 1}) SET p.v = 2");
  ok_or_fail (Session.commit sess);
  (match !commits with
  | [ c ] ->
    Alcotest.(check (list int)) "updating traces in order, each once"
      [ 7; 5 ] c.Session.c_traces;
    (match c.Session.c_delta with
    | None -> Alcotest.fail "expected a delta"
    | Some d ->
      (* node k=2: created (and updated — still just "added"); node k=1:
         updated twice across two frames — exactly one "changed" entry *)
      Alcotest.(check int) "one added node" 1
        (List.length d.Graph.d_nodes_added);
      Alcotest.(check int) "one changed node, not two" 1
        (List.length d.Graph.d_nodes_changed);
      Alcotest.(check int) "no removed nodes" 0
        (List.length d.Graph.d_nodes_removed);
      Alcotest.(check int) "no rels" 0
        (List.length d.Graph.d_rels_added
        + List.length d.Graph.d_rels_changed
        + List.length d.Graph.d_rels_removed))
  | l -> Alcotest.failf "expected exactly one commit, got %d" (List.length l));
  commits := [];
  (* a rolled-back inner frame leaves no trace in the outer delta *)
  Session.begin_tx sess;
  traced 3 "CREATE (:P {k: 3, v: 0})";
  Session.begin_tx sess;
  traced 4 "CREATE (:P {k: 99, v: 0})";
  ignore (run_ok sess "MATCH (p:P {k: 1}) SET p.v = 9");
  ok_or_fail (Session.rollback sess);
  ok_or_fail (Session.commit sess);
  (match !commits with
  | [ c ] ->
    Alcotest.(check (list int)) "only the surviving statement's trace" [ 3 ]
      c.Session.c_traces;
    (match c.Session.c_delta with
    | None -> Alcotest.fail "expected a delta"
    | Some d ->
      Alcotest.(check int) "only k=3 added" 1 (List.length d.Graph.d_nodes_added);
      Alcotest.(check int) "rolled-back SET invisible" 0
        (List.length d.Graph.d_nodes_changed))
  | l -> Alcotest.failf "expected exactly one commit, got %d" (List.length l));
  commits := [];
  (* a fully rolled-back outer transaction reports nothing *)
  Session.begin_tx sess;
  ignore (run_ok sess "CREATE (:P {k: 4, v: 0})");
  ok_or_fail (Session.rollback sess);
  Alcotest.(check int) "rollback reports no commit" 0 (List.length !commits);
  (* base/graph span agrees with the delta *)
  Session.begin_tx sess;
  ignore (run_ok sess "CREATE (:P {k: 5, v: 0})");
  ok_or_fail (Session.commit sess);
  match !commits with
  | [ c ] ->
    Alcotest.(check int) "base node count"
      (Graph.node_count c.Session.c_graph - 1)
      (Graph.node_count c.Session.c_base);
    Alcotest.(check bool) "delta recomputable from the span" true
      (match Graph.delta_between ~since:c.Session.c_base c.Session.c_graph with
      | Some d -> List.length d.Graph.d_nodes_added = 1
      | None -> false)
  | l -> Alcotest.failf "expected exactly one commit, got %d" (List.length l)

let tx_errors () =
  let sess = Session.create Graph.empty in
  (match Session.commit sess with
  | Ok () -> Alcotest.fail "commit without tx"
  | Error _ -> ());
  match Session.rollback sess with
  | Ok () -> Alcotest.fail "rollback without tx"
  | Error _ -> ()

let suite =
  [
    tc "auto-commit" autocommit;
    tc "rollback restores the snapshot" rollback_restores;
    tc "commit keeps effects" commit_keeps;
    tc "nested transactions" nested_transactions;
    tc "schema enforced per statement outside tx" schema_on_autocommit;
    tc "schema deferred to commit inside tx" schema_deferred_to_commit;
    tc "session parameters" params_and_reads;
    tc "nested commits coalesce into one delta" coalesced_commit_delta;
    tc "commit/rollback without a transaction fail" tx_errors;
  ]

(* Shared helpers for the test suites. *)

open Cypher_values
open Cypher_table

let cfg = Cypher_semantics.Config.default

let parse q =
  match Cypher_parser.Parser.parse_query q with
  | Ok ast -> ast
  | Error e -> Alcotest.failf "parse error in %S: %s" q e

let run ?(config = cfg) g q =
  Cypher_semantics.Clauses.output config g (parse q)

let run_state ?(config = cfg) g q =
  Cypher_semantics.Clauses.run_query config g (parse q)

(* Values shorthand *)
let vint i = Value.Int i
let vstr s = Value.String s
let vbool b = Value.Bool b
let vnull = Value.Null
let vlist l = Value.List l
let vnode i = Value.Node (Ids.node_of_int i)
let vrel i = Value.Rel (Ids.rel_of_int i)

let record kvs = Record.of_list kvs

let table fields rows = Table.create ~fields (List.map record rows)

let check_table_bag msg expected actual =
  if not (Table.bag_equal expected actual) then
    Alcotest.failf "%s:@.expected:@.%a@.actual:@.%a" msg Table.pp expected
      Table.pp actual

let check_table_ordered msg expected actual =
  if not (Table.equal_ordered expected actual) then
    Alcotest.failf "%s (ordered):@.expected:@.%a@.actual:@.%a" msg Table.pp
      expected Table.pp actual

(* Asserts that running [q] on [g] returns exactly [rows] (bag equality,
   order-insensitive). *)
let expect_bag g q fields rows =
  check_table_bag q (table fields rows) (run g q)

let expect_ordered g q fields rows =
  check_table_ordered q (table fields rows) (run g q)

let value_testable =
  Alcotest.testable Value.pp Value.equal_total

let check_value = Alcotest.check value_testable

let tc name f = Alcotest.test_case name `Quick f

(* The value of an engine-typed result; its rendered error fails the
   test. *)
let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Cypher_engine.Engine.error_message e)

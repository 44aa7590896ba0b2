(** A scenario framework in the shape of the openCypher TCK.

    The paper (Section 5) describes the openCypher artefacts, among them
    "a Technology Compatibility Kit (TCK), designed using a language
    neutral framework (Cucumber)": scenarios state a starting graph
    (Given), a query (When) and the expected table or side effects
    (Then).  This module reproduces that shape in OCaml; scenario suites
    live in the test directory and run against both engines.

    Expected rows are written as Cypher expression literals (e.g.
    ["'Alice'"], ["[1, 2]"], ["null"]) and evaluated in an empty
    environment, as the TCK does. *)

open Cypher_values
open Cypher_graph

type side_effects = {
  nodes_created : int;
  nodes_deleted : int;
  rels_created : int;
  rels_deleted : int;
  props_set : int;
      (** property assignments counted as the TCK does: one per key whose
          value changed, appeared or disappeared on a surviving entity *)
  labels_added : int;
  labels_removed : int;
}

val no_effects : side_effects

type error_class = SyntaxError | TypeError | ArithmeticError
(** The TCK's error classes (paper, Section 5).  A [SyntaxError] is a
    parse or static-check error, a [TypeError] a type error, and an
    [ArithmeticError] a run-time error. *)

type expectation =
  | Rows of string list * string list list
      (** column names and rows of expression literals, unordered *)
  | Rows_ordered of string list * string list list
  | Row_count of int
  | Empty_result
  | Error_raised  (** any error *)
  | Error_of_class of error_class
  | Side_effects of side_effects

type scenario = {
  name : string;
  given : string list;
      (** setup queries (usually CREATE) run against the empty graph *)
  when_ : string;  (** the query under test *)
  params : (string * Value.t) list;
  then_ : expectation list;
}

val scenario :
  ?given:string list ->
  ?params:(string * Value.t) list ->
  string ->
  when_:string ->
  then_:expectation list ->
  scenario

val run_scenario :
  ?config:Cypher_semantics.Config.t ->
  mode:Cypher_engine.Engine.mode ->
  scenario ->
  (unit, string) result

val graph_of_given : string list -> Graph.t
(** Runs the setup queries on the empty graph. *)

val to_alcotest :
  ?config:Cypher_semantics.Config.t ->
  scenario list ->
  (string * [ `Quick | `Slow ] * (unit -> unit)) list
(** One alcotest case per (scenario, engine mode) pair. *)

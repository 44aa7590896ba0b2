(** Multiple named graphs and query composition — the Cypher 10 features
    of the paper's Section 6.

    "The Cypher 10 proposal for multiple graphs introduces named graph
    references ... Graph references may be passed as arguments to, and
    returned as results from, Cypher 10 queries"; queries pass a
    "table-graphs" construct — a single table plus named graphs — from
    one elementary query to the next.

    The composed query language accepted by {!run} extends core Cypher
    with three constructs, each written on its own line (as in the
    paper's Example 6.1):

    - [FROM GRAPH name] or [FROM GRAPH name AT "url"] — switch the
      source graph for the following clauses ([AT] registers the
      catalog name for an external location; the location string itself
      is recorded but not dereferenced — there is no network here);
    - [QUERY GRAPH name] — synonym of [FROM GRAPH name], used by the
      paper when a composed query starts from a projected graph;
    - [RETURN GRAPH name OF (a)-[:T]->(b)] — instead of a table, project
      a new named graph: for every result row, the nodes bound to [a]
      and [b] are copied {e with their identity} into the new graph and
      connected by a fresh [T] relationship.

    Node identity is preserved across projections, so a follow-up query
    can join a projected graph against another graph of the same
    universe — exactly the composition of Example 6.1. *)

open Cypher_graph
open Cypher_table
open Cypher_semantics

module Catalog : sig
  type t

  val empty : t
  val add : string -> Graph.t -> t -> t
  val find : string -> t -> Graph.t option
  val names : t -> string list
  val locations : t -> (string * string) list
  (** The [AT] locations registered so far, for introspection. *)

  val add_location : string -> string -> t -> t
end

type outcome = {
  table : Table.t;  (** tabular part of the resulting table-graphs *)
  catalog : Catalog.t;  (** catalog including any projected graph *)
  produced : string option;  (** name of the graph built by RETURN GRAPH *)
}

val run :
  ?config:Config.t ->
  catalog:Catalog.t ->
  default:string ->
  string ->
  (outcome, Cypher_engine.Engine.error) result
(** Runs a composed query against the catalog, starting from the graph
    named [default].  Each core piece is checked like a query of its own
    ({!Cypher_engine.Engine.parse}), with the incoming table's fields in
    scope, and fails with the engine's typed errors; a malformed graph
    clause is a [Parse_error], an unknown graph a [Runtime_error]. *)

val run_chain :
  ?config:Config.t ->
  catalog:Catalog.t ->
  default:string ->
  string list ->
  (outcome, Cypher_engine.Engine.error) result
(** Runs a chain of composed queries, threading the catalog: each query
    sees the graphs projected by the previous ones — the "chain of
    elementary queries" composition of Section 6. *)

(** {1 Set operations on graphs}

    Section 6: graph references "may be passed as arguments to, and
    returned as results from, Cypher 10 queries, and can be used in set
    operations".  These operations assume the two graphs share a universe
    of identifiers (as projected graphs do): nodes and relationships are
    combined by identity, not remapped. *)

val graph_union : Graph.t -> Graph.t -> Graph.t
(** All nodes and relationships of both graphs; on an id collision the
    left graph's data wins. *)

val graph_intersection : Graph.t -> Graph.t -> Graph.t
(** Nodes present in both graphs, and relationships present in both whose
    endpoints survive. *)

val graph_difference : Graph.t -> Graph.t -> Graph.t
(** Nodes of the left graph absent from the right, with the surviving
    relationships of the left graph. *)

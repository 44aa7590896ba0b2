(** A schema-constraint layer (paper, Section 8, "Schema model").

    "Cypher was originally conceived in a dynamically typed, schema-less
    context.  Neo4j nowadays is schema-optional, i.e. it supports an
    additional schema constraint language (e.g. for requiring nodes with
    a given label to have certain properties)."  This module implements
    that schema-optional model: constraints are declared (programmatic
    API or Neo4j-style DDL text), a graph can be validated against them,
    and {!guarded_query} runs a query transactionally — if the updated
    graph violates the schema, the update is rejected and the original
    graph kept (the paper notes MERGE-style uniqueness relies on exactly
    this kind of database enforcement). *)

open Cypher_graph

type constraint_ =
  | Node_property_exists of { label : string; key : string }
      (** every node with the label must have the property *)
  | Node_property_unique of { label : string; key : string }
      (** no two nodes with the label share a value for the property *)
  | Node_property_type of { label : string; key : string; type_name : string }
      (** when present, the property must have the given type (the
          {!Value.type_name} spelling, e.g. ["INTEGER"]) *)
  | Rel_property_exists of { rel_type : string; key : string }

type t
(** A set of constraints. *)

val empty : t
val add : constraint_ -> t -> t
val constraints : t -> constraint_ list
val pp_constraint : Format.formatter -> constraint_ -> unit

(** {1 DDL text}

    The Neo4j 3.x surface syntax, one statement per call:
    - [CREATE CONSTRAINT ON (p:Person) ASSERT exists(p.name)]
    - [CREATE CONSTRAINT ON (p:Person) ASSERT p.ssn IS UNIQUE]
    - [CREATE CONSTRAINT ON (p:Person) ASSERT p.age IS INTEGER]
    - [CREATE CONSTRAINT ON ()-[k:KNOWS]-() ASSERT exists(k.since)] *)

val parse_ddl : string -> (constraint_, string) result
val add_ddl : string -> t -> (t, string) result

(** {1 Validation} *)

type violation = {
  violated : constraint_;
  culprit : string;  (** [n4] / [r2] — the offending entity *)
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

val check : t -> Graph.t -> violation list
(** All violations in the graph (empty means the graph conforms). *)

val conforms : t -> Graph.t -> bool

(** {1 Guarded execution} *)

val guarded_query :
  ?config:Cypher_semantics.Config.t ->
  schema:t ->
  Graph.t ->
  string ->
  (Cypher_engine.Engine.outcome, Cypher_engine.Engine.error) result
(** Runs the query; if the resulting graph violates the schema, returns
    a [Runtime_error] naming the first violation and discards the update (the
    store is persistent, so rollback is free). *)

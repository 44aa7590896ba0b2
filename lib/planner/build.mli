(** Compilation of queries into physical plans.

    Pattern planning is cost-based, in the spirit of the paper's Section
    2 (Neo4j uses IDP with a statistics-driven cost model): the builder
    picks the cheapest start point for every path pattern — a bound
    variable, a label index scan, or a full node scan — chooses the
    traversal orientation accordingly, and orders the path patterns of a
    MATCH greedily by estimated start cardinality, preferring patterns
    connected to already-bound variables.  At the plan sizes this engine
    targets, IDP's dynamic programming degenerates to this greedy chain
    construction.

    Relationship isomorphism is enforced the way real plan runtimes do
    it: anonymous relationships receive internal names and a
    [Rel_uniqueness] operator checks pairwise disjointness per MATCH. *)

open Cypher_graph
open Cypher_ast

exception Unsupported of string
(** Raised for constructs the planner does not compile (update clauses,
    non-default morphisms); the engine falls back to the reference
    semantics for those. *)

type compiled = { plan : Plan.t; fields : string list; prog : Exec.program }
(** A plan together with the user-visible output fields, and the plan
    compiled for execution over the driving table's fields ([visible]):
    slots given, expressions compiled.  A prepared query keeps it, so a
    plan-cache hit never compiles again. *)

val compile_clauses :
  stats:Stats.t ->
  ?scan_rels:bool ->
  ?ordering:[ `Greedy | `Textual ] ->
  visible:string list ->
  Ast.clause list ->
  Ast.projection option ->
  compiled
(** Compiles a pipeline of read-only clauses (with an optional final
    RETURN) into one plan.  [visible] is the set of fields of the driving
    table.  [scan_rels] selects the baseline Expand that scans the whole
    relationship set (experiment B1); [ordering:`Textual] disables the
    greedy pattern ordering (the B8 ablation), compiling path patterns in
    the order they were written. *)

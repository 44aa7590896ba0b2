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

    A path with a bound node starts there: at a bound end if it has one,
    else at a bound interior node, expanding the hops to its left
    reversed and then those to its right.  A path with a type-regex hop
    always runs as written.

    Relationship isomorphism is enforced the way real plan runtimes do
    it: anonymous relationships receive internal names and a
    [Rel_uniqueness] operator checks pairwise disjointness per MATCH. *)

open Cypher_graph
open Cypher_ast

exception Unsupported of string
(** Raised for constructs the planner does not compile (update and CALL
    clauses, some shortest-path shapes); the engine falls back to the
    reference semantics for those.  The planner never reads the
    morphism: the engine sends queries under a non-default morphism to
    the reference semantics without planning them. *)

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

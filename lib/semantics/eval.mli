(** The reference denotational semantics of expressions and pattern
    matching (paper, Sections 4.2 and 4.3).

    [eval_expr] realises [[expr]]_{G,u}: the value of an expression in a
    property graph [G] under an assignment [u] (a record).

    [match_pattern_tuple] realises [match(π̄, G, u)] (Equation 1): the
    bag of records [u'] with [dom(u') = free(π̄) − dom(u)] such that some
    tuple of paths [p̄] and some rigid pattern tuple [π̄' ∈ rigid(π̄)]
    satisfy [(p̄, G, u·u') |= π̄'].  The multiplicity of [u'] is the
    number of such [(π̄', p̄)] combinations, which reproduces the bag
    semantics of MATCH (the duplicate rows of the paper's Section 3
    walkthrough and Example 4.5).

    Instead of literally enumerating the infinite set [rigid(π̄)], the
    implementation expands variable-length relationship patterns hop by
    hop; the expansion is cut off soundly because a path may not repeat a
    relationship (edge isomorphism), so no satisfiable rigid pattern is
    longer than |R(G)|.  Under the homomorphism option the cut-off is the
    configured cap. *)

open Cypher_values
open Cypher_graph
open Cypher_table
open Cypher_ast

exception Eval_error of string
(** Re-export of {!Functions.Eval_error} (same exception). *)

val eval_expr : Config.t -> Graph.t -> Record.t -> Ast.expr -> Value.t
(** [[expr]]_{G,u}.  Raises {!Eval_error} for unbound variables or
    parameters, aggregates in scalar position, and unknown functions;
    {!Value.Type_error} for ill-typed operations. *)

val eval_truth : Config.t -> Graph.t -> Record.t -> Ast.expr -> Ternary.t
(** Evaluates a predicate to a truth value (booleans and null only). *)

val path_cost : string -> Value.t -> float
(** [path_cost prop v]: the cost of a relationship whose cost property
    [prop] holds [v], for cheapestPath.  Raises {!Eval_error} when the
    property is missing and {!Value.Type_error} when it is not a
    number. *)

val cheapest_path :
  string -> fwd:float Cypher_algos.Path_search.neighbours ->
  bwd:float Cypher_algos.Path_search.neighbours -> Ids.node -> Ids.node ->
  Cypher_algos.Path_search.step list list
(** [cheapest_path prop ~fwd ~bwd s e]: the step lists of a cheapest
    path from [s] to [e] (one, or none when unreachable), by the shared
    bidirectional Dijkstra.  Both engines call it, so they report the
    same path and the same typed errors: identical endpoints, and a
    negative or NaN cost met while relaxing. *)

val match_pattern_tuple :
  Config.t -> Graph.t -> Record.t -> Ast.path_pattern list -> Record.t list
(** [match(π̄, G, u)] as a list of records with multiplicity (one list
    element per occurrence).  The returned records contain only the new
    bindings (domain [free(π̄) − dom(u)]). *)

val satisfies_node_pattern :
  Config.t -> Graph.t -> Record.t -> Ids.node -> Ast.node_pattern -> bool
(** [(n, G, u) |= χ] for a node pattern, exposed for tests and the
    experiment harness (Example 4.2). *)

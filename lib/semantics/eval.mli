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
    implementation walks variable-length and regex hops with the shared
    walker {!Cypher_algos.Path_search.walks}, hop by hop; the walk is cut
    off soundly because a path may not repeat a relationship (edge
    isomorphism), so no satisfiable rigid pattern is longer than |R(G)|.
    Under the homomorphism option the cut-off is the configured cap. *)

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

(** {2 Value-level steps}

    The steps of {!eval_expr} that act on values already computed.  The
    planner's compiled expressions call them too, so each operation has
    one implementation for both engines. *)

val property : Graph.t -> Value.t -> string -> Value.t
(** [property g v k]: [v.k] — a property of a node, relationship or
    map (null when absent), or a component of a temporal value; null
    on null. *)

val comparison : Ast.cmp_op -> Value.t -> Value.t -> Ternary.t
(** A comparison under Cypher's ternary logic; applied to the operator
    alone it is the comparison's function. *)

val arith : Ast.arith_op -> Value.t -> Value.t -> Value.t
(** Binary arithmetic, temporal operands included. *)

val has_labels : Graph.t -> Value.t -> string list -> Value.t
(** [n:L1:L2]: whether a node carries every label; null on null. *)

val value_of_ternary : Ternary.t -> Value.t
(** A truth value as a value: a boolean, or null for unknown. *)

val truth_of_value : Value.t -> Ternary.t
(** A predicate's value as a truth value; a type error unless boolean
    or null. *)

val regex_matcher : string -> string -> Value.t
(** [regex_matcher pat] compiles the whole-string PCRE matcher of a
    [=~] pattern once.  For an invalid pattern it returns a matcher
    that raises {!Eval_error} when applied, so building one never
    fails. *)

val regex_match :
  matcher:(string -> string -> Value.t) -> Value.t -> Value.t -> Value.t
(** [regex_match ~matcher s pat]: [s =~ pat], null if either is null, a
    type error unless both are strings; [matcher pat s] does the match. *)

val restr_ok :
  Ast.path_restrictor -> Ids.node -> Cypher_algos.Path_search.step list -> bool
(** [restr_ok restr start steps]: whether the path from [start] along
    [steps] satisfies the GQL restrictor — WALK imposes nothing, TRAIL
    forbids a repeated relationship, ACYCLIC a repeated node.  Both
    engines check paths with it. *)

val max_hops : Config.t -> Graph.t -> int option -> int
(** [max_hops cfg g max_len]: the most hops a variable-length, regex or
    shortest-path search may take — [max_len] when the pattern gives
    one, else [var_length_cap], else |R(G)|. *)

type hop = {
  types : string list;
      (** the types the adjacency admits ([[]]: every type), filtered
          before [step] sees a relationship *)
  start : Type_regex.states;
  step : Type_regex.states -> Graph.rel_data -> Type_regex.states option;
      (** the state after reading one relationship (its type), or [None]
          when the hop cannot read it *)
  ends : int -> Type_regex.states -> bool;
      (** whether a walk of this many hops, in this state, may end *)
  kmax : int;
}
(** How a variable-length or regex hop reads relationship types along
    the walks of {!Cypher_algos.Path_search.walks}: an automaton whose
    state travels in the walk state.  Both engines build their hops
    here. *)

val type_filter_hop :
  Config.t -> Graph.t -> types:string list -> min_len:int ->
  max_len:int option -> hop
(** A plain [[:A|B*min..max]] hop: a type filter ([[]] admits every
    type) that may end from [min_len] hops on, up to {!max_hops}.  No
    automaton runs and no record is read; the state set stays empty. *)

val regex_hop : Config.t -> Graph.t -> Ast.type_regex -> hop
(** A regex hop: the type regex's NFA, subset-simulated; a walk may end
    wherever the state set accepts, up to {!max_hops} [None]. *)

type _ payload =
  | Of_record : (Graph.rel_data -> 'w) -> 'w payload
      (** the payload computed from the relationship's record *)
  | Cost : string -> float payload
      (** the relationship's cost for cheapestPath, read from the
          property it names *)
(** What {!search_neighbours} hands a search with each relationship. *)

val search_neighbours :
  Config.t -> Graph.t -> Record.t -> types:string list ->
  props:(string * Ast.expr) list -> payload:'w payload -> Ast.direction ->
  'w Cypher_algos.Path_search.neighbours * 'w Cypher_algos.Path_search.neighbours
(** [search_neighbours cfg g u ~types ~props ~payload dir]: the adjacency
    every path search and walk runs on, forwards along [dir] and
    backwards against it.  A relationship qualifies when its type is in
    [types] (any, if empty; resolved once, and tested on the adjacency
    block with no record read) and each property in [props], evaluated
    under [u], equals its own.  Its payload is [f] of its record, which
    the adjacency block holds, for [Of_record f]; for [Cost prop] it is
    the value of [prop] read off the block's cost column
    ({!Graph.iter_adjacent_costs}), or, where the column holds NaN,
    {!path_cost} of the record — so a missing or non-numeric cost raises
    its typed error when its relationship qualifies, never when the
    type filter or a predicate excludes it, and a NaN cost reaches the
    search as NaN.  Neighbours are offered in
    {!Graph.iter_adjacent}'s order.  A predicate that cannot evaluate under [u]
    raises {!Eval_error} when the search first needs it: naming the
    variable when it references one [u] does not bind, and otherwise
    the evaluator's own error (a missing parameter, an unknown
    function). *)

val path_cost : string -> Graph.rel_data -> float
(** [path_cost prop d]: the cost of a relationship with record [d] for
    cheapestPath, read from its property [prop].  Raises {!Eval_error}
    when the property is missing and {!Value.Type_error} when it is not
    a number.  A search reads costs off the cost column and calls this
    only where the column holds NaN, to raise those errors. *)

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

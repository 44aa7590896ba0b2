(** The denotational semantics of clauses and queries (paper, Section 4.3,
    Figures 6 and 7).

    The semantics of a clause [C] relative to a graph [G] is a function
    from tables to tables.  Update clauses (Section 2) additionally
    transform the graph, so the state threaded through a query is a pair
    (graph, table); for read-only clauses the graph component is
    untouched and the table transformation is exactly the figure's
    function.

    Query evaluation starts from [T()], the table with one empty record:
    [output(Q, G) = [[Q]]_G(T())]. *)

open Cypher_graph
open Cypher_table
open Cypher_ast

type state = { graph : Graph.t; table : Table.t }

val apply_clause : Config.t -> Ast.clause -> state -> state
(** [[C]]_G, extended to thread graph updates. *)

val update_fields : Ast.clause -> string list -> string list option
(** The fields of {!apply_clause}'s output for an update clause or CALL,
    given its input's fields.  [None] for a CALL without YIELD, whose
    columns are known only once the procedure has run.  Raises
    [Invalid_argument] for a read clause. *)

val apply_projection :
  Config.t -> kw:string -> Ast.projection -> state -> state
(** The shared semantics of RETURN and WITH: projection with implicit
    grouping and aggregation, DISTINCT, ORDER BY, SKIP and LIMIT.  Field
    names follow the paper's α convention: an un-aliased item is named by
    its printed expression. *)

val run_single : Config.t -> Graph.t -> Ast.single_query -> state
val run_query : Config.t -> Graph.t -> Ast.query -> state

val output : Config.t -> Graph.t -> Ast.query -> Table.t
(** [output Q G = [[Q]]_G(T())], discarding graph updates. *)

val item_name : Ast.ret_item -> string
(** Alias if present, otherwise α(expression) = its printed text. *)

val rewrite_order_expr :
  Ast.ret_item list -> string list -> Ast.expr -> Ast.expr
(** Rewrites an ORDER BY expression against the projection items:
    subexpressions that syntactically equal an item become references to
    the item's column. *)

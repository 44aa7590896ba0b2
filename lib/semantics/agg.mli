(** Aggregation: the evaluation of aggregating expressions in RETURN and
    WITH items (paper, Section 3).

    A projection item that contains an aggregate is evaluated in two
    stages: the aggregate subterms are lifted out ({!extract_aggregates}),
    computed over the rows of the group ({!compute}), and the remaining
    expression is evaluated with the results bound to synthetic
    variables.  The non-aggregating items act as the implicit grouping
    key. *)

open Cypher_values
open Cypher_graph
open Cypher_table
open Cypher_ast

type spec =
  [ `Count_star  (** count( * ) — counts rows, including nulls *)
  | `Agg of Ast.agg_fn * bool * Ast.expr  (** function, DISTINCT, argument *)
  | `Percentile of bool * bool * Ast.expr * Ast.expr
    (** continuous?, DISTINCT, value expression, percentile expression *)
  ]

val contains_aggregate : Ast.expr -> bool

val extract_aggregates : Ast.expr -> Ast.expr * (string * spec) list
(** Replaces every aggregate subterm with a fresh synthetic variable
    (named [#agg1], [#agg2], ...) and returns the rewritten expression
    together with the extracted specs. *)

val compute :
  Config.t -> Graph.t -> Record.t list -> spec -> Value.t
(** Computes one aggregate over the rows of a group.  Null arguments are
    skipped (except for [count( * )]); DISTINCT deduplicates the argument
    multiset; [sum] of no values is 0, [avg]/[min]/[max] of no values is
    null; [collect] of no values is the empty list. *)

(** {2 Split evaluation}

    [compute] is {!finalize} over the values of {!arg_expr}.  The
    planner evaluates the argument its own way, per slotted row as rows
    arrive, and folds with {!finalize} in row order, so non-associative
    float folds agree bitwise with [compute]. *)

val arg_expr : spec -> Ast.expr option
(** The expression whose non-null values the aggregate consumes, one per
    input row; [None] for [`Count_star]. *)

val percentile_expr : spec -> Ast.expr option
(** A percentile aggregate's percentile expression. *)

val finalize :
  percentile:(unit -> Value.t) option ->
  row_count:int ->
  Value.t list ->
  spec ->
  Value.t
(** Folds the argument values — nulls dropped, in row order, before any
    DISTINCT dedup — to the aggregate's result.  [percentile] evaluates
    {!percentile_expr} against the group's first row ([None] when the
    group has no rows); [row_count] is the group's row count (what
    [count( * )] reports). *)

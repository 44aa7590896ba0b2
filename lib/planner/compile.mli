(** Expressions compiled once per plan into closures over slotted rows.

    The planned engine's rows are [Value.t array]s: the plan gives each
    variable a slot ({!Exec.compile}), and an operator's input schema
    — the variables bound below it, and their slots — is a {!scope}.
    An expression compiled against a scope reads its variables straight
    from their slots.

    Compilation is staged.  [expr scope e] walks the AST once, when the
    plan is built; applying the result to an {!env} resolves parameters
    once per execution; the closure it returns is what runs per row.

    Value semantics are not reimplemented: compiled code calls {!Ops},
    {!Functions}, {!Ternary}, {!Value} and the value-level steps that
    {!Eval} shares with it.  Constructors not compiled natively — list
    and map literals, indexing, slicing, CASE, comprehensions, reduce,
    quantifiers, map projections, pattern predicates, [exists] — rebuild the record the reference evaluator
    expects from the row's bound slots and call {!Eval.eval_expr}.  So
    does a variable the scope does not bind, and a missing parameter:
    their errors are the evaluator's own and raise only when the
    expression is evaluated. *)

open Cypher_values
open Cypher_graph
open Cypher_table
open Cypher_ast
open Cypher_semantics

module Smap : Map.S with type key = string

type row = Value.t array

type env = { cfg : Config.t; g : Graph.t }
(** What an execution evaluates under. *)

type scope = int Smap.t
(** The variables bound at a point of the plan, each with its slot. *)

type 'a compiled = env -> row -> 'a

val expr : scope -> Ast.expr -> Value.t compiled
(** [expr scope e]: [e] compiled against [scope].  Agrees with
    [Eval.eval_expr] on the record of the row's bound slots: the same
    value, or the same exception. *)

val truth : scope -> Ast.expr -> Ternary.t compiled
(** A predicate compiled to its truth value, as [Eval.eval_truth]. *)

val to_record : scope -> row -> Record.t
(** The record of a row's bound slots (the result boundary). *)

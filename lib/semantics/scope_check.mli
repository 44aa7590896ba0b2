(** Static variable-scope analysis.

    Real Cypher implementations reject queries that reference undefined
    variables at compile time (the TCK expects a SyntaxError even when
    the query would never evaluate the offending expression).  This pass
    walks a query tracking the variables in scope — pattern bindings,
    projection aliases, UNWIND and YIELD introductions — and reports the
    first reference to an undefined variable.

    Variables inside pattern predicates (e.g. [WHERE (a)-->(b)]) are
    existentially quantified, so they never need to be in scope; binders
    of list comprehensions and quantifiers shadow as expected.

    It also rejects what the paper's tables rule out (§4.1): a
    projection that names two columns alike, and a UNION whose branches
    return different columns. *)

open Cypher_ast

val check_query : ?bound:string list -> Ast.query -> (unit, string) result
(** [Error msg] names the first violation.  [bound] names variables in
    scope before the first clause (default none). *)

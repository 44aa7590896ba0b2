(** The query engine façade: parse, plan, execute.

    Two execution modes are provided:

    - [Reference] evaluates queries by a direct transcription of the
      paper's denotational semantics (Sections 4.2–4.3) — the "reference
      implementation against which others will be compared" that the
      paper calls for;
    - [Planned] compiles read-only pipelines into Volcano-style physical
      plans with cost-based pattern ordering (the architecture the paper
      attributes to Neo4j in Section 2) and executes update clauses
      through the reference implementation.

    Every entry point turns a statement's text into one value once
    (index DDL, EXPLAIN, PROFILE or a query; parsed and scope-checked),
    and a query into one {e prepared form} before any clause runs: its
    read segments compiled into plans, its update clauses kept as steps
    between them.  Running, EXPLAIN, PROFILE, {!stream} and the plan
    cache all consume that form, so EXPLAIN shows the plan that runs.  A
    query with a segment the planner refuses is unplanned as a whole and
    runs on the reference evaluator, counted in
    [cypher_engine_reference_fallback_total].

    Both modes implement the same language; {!cross_check} runs both and
    verifies that the result bags agree. *)

open Cypher_graph
open Cypher_table
open Cypher_semantics

type mode = Reference | Planned

type outcome = { graph : Graph.t; table : Table.t }
(** Result of a query: the possibly-updated graph and the output table
    ([output(Q, G)] in the paper's notation). *)

type error =
  | Parse_error of string
  | Syntax_error of string  (** a static check failed ({!Scope_check}) *)
  | Type_error of string
  | Runtime_error of string
  | Unsupported of string
(** An engine failure with its class.  It reaches the wire unchanged and
    is rendered to text only where it is shown. *)

val error_message : error -> string
(** ["parse error: …"], ["syntax error: …"] and so on; a remote client
    renders the wire error to the same text. *)

val catching : (unit -> 'a) -> ('a, error) result
(** Runs [f], mapping the evaluators' exceptions to [Runtime_error] or
    [Type_error]. *)

val parse :
  ?bound:string list -> string -> (Cypher_ast.Ast.query, error) result
(** Parses a query and checks it statically, with the variables [bound]
    in scope before its first clause (default none). *)

type stmt_class = Read_only | Update
(** Whether a statement can mutate the graph, decided statically. *)

val classify : string -> stmt_class
(** Classifies a statement from its AST {e before} execution — the basis
    of the server's MVCC routing: [Read_only] statements run lock-free
    against a pinned snapshot, [Update] statements serialise on the
    single-writer path and execute exactly once.  Conservative where it
    must be: CALL counts as [Update] (a procedure may mutate), index DDL
    is [Update], EXPLAIN/PROFILE are [Read_only] (PROFILE of an update
    falls back to the plan rendering and never executes the update).
    [Read_only] is sound — no read clause can change the graph.  A
    statement rejected before it runs (a parse or scope error) is
    [Read_only]: the lock-free path reports the identical error. *)

val query :
  ?config:Config.t -> ?mode:mode -> Graph.t -> string ->
  (outcome, error) result
(** Parses and evaluates a query or index DDL; every failure is a typed
    {!error}.  A query prefixed with [EXPLAIN] or [PROFILE] returns the
    plan rendering as a one-column table instead of executing normally. *)

val run : ?config:Config.t -> ?mode:mode -> Graph.t -> string -> Table.t
(** Like {!query} but raises [Failure] on error and discards graph
    updates — the convenient form for read-only queries. *)

val run_exn :
  ?config:Config.t -> ?mode:mode -> Graph.t -> string -> outcome
(** Like {!query} but raises [Failure] on error. *)

val stream :
  ?config:Config.t -> Graph.t -> string ->
  (Cypher_table.Record.t Seq.t, error) result
(** Lazily executes a read-only single query through the Volcano
    pipeline: rows are produced on demand, so consuming a prefix does
    only a prefix of the work (see the LIMIT short-circuit test).
    Queries the planner does not prepare as a single read step are
    rejected as [Unsupported]. *)

val run_script :
  ?config:Config.t -> ?mode:mode -> Graph.t -> string ->
  (outcome, string) result
(** Runs a semicolon-separated sequence of statements, threading the
    graph; the outcome carries the final graph and the last statement's
    table.  Semicolons inside string literals, comments and backtick
    identifiers do not split. *)

val explain : Graph.t -> string -> (string, error) result
(** The prepared form that [Planned] mode would execute, rendered as
    indented operator trees with estimated row counts: one plan per read
    segment, with a [+ Update [...]] line for each update clause between
    them.  An unplanned query renders as [(not planned: reason)]. *)

val profile : ?config:Config.t -> Graph.t -> string -> (string, error) result
(** Executes the query and renders the plan annotated per operator with
    estimated vs actual rows, {e db hits} (store accesses, see
    {!Graph.db_hits}) and elapsed time — PROFILE in the style of
    Neo4j.  Hits and time are the operator's own share (inputs
    subtracted); a [total:] footer gives the whole query.  Only a query
    prepared as a single read step is profiled; any other planned query
    shows the {!explain} rendering without running, and an unplanned one
    is an [unsupported] error. *)

(** {1 The query-plan cache}

    The plan cache amortises parsing and planning to zero for repeated
    statements.  Entries are keyed by the statement text alone — the
    planner never reads parameter values or names.  A text has one
    entry, made by its one parse: the dispatched statement (valid against
    any graph), its {!stmt_class}, its {!Cypher_obs.Qstats.fingerprint},
    and its prepared form tagged with the {!Graph.version} whose
    statistics it was compiled from.  When the graph changes, the next
    execution prepares it again against fresh statistics — cached
    cardinality estimates can never go stale — while the parse and scope
    check are still reused. *)

type plan_cache

val create_plan_cache : unit -> plan_cache
(** LRU over 128 statement texts. *)

type cache_stats = {
  cache_hits : int;  (** lookups that found an entry *)
  cache_misses : int;
  cache_replans : int;
      (** cached read statements prepared again because the graph
          version moved *)
  cache_evictions : int;
}

val cache_stats : plan_cache -> cache_stats

val classify_cached : cache:plan_cache -> string -> stmt_class
(** {!classify}, read from the text's plan-cache entry.  A text the cache
    does not hold is parsed into a new entry, so the {!query_cached} that
    runs it next does not parse it again.  Classification counts no
    lookup: that execution's lookup is the miss. *)

val query_cached :
  cache:plan_cache ->
  ?config:Config.t -> ?mode:mode -> Graph.t -> string ->
  (outcome, error) result
(** Like {!query}, going through the cache.  Semantically transparent:
    results and typed errors are identical to the uncached path.  Each
    call is one counted lookup, a miss exactly when this request parsed
    the text.  Every
    statement kind is cached, EXPLAIN/PROFILE and index DDL included;
    [Reference] mode and non-default morphisms, which the planner does
    not serve, bypass the cache. *)

val cross_check :
  ?config:Config.t -> Graph.t -> string -> (Table.t, string) result
(** Runs the query in both modes and checks that the outputs are equal as
    bags; returns the reference output on success and a diagnostic
    message on disagreement.  Used extensively by the test suite to keep
    the planned engine honest against the formal semantics. *)

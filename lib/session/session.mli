(** Sessions: a mutable handle over the persistent store with
    transactions.

    The paper notes that an implementation "can use database
    synchronization primitives such as locking to ensure that patterns
    matched by MERGE are unique" (Section 2); this single-threaded
    reproduction gets transactional behaviour for free from the
    persistent graph: a transaction is a snapshot, rollback restores it,
    and nesting is a stack of snapshots.  A session also carries the
    schema (Section 8) — every committed state must conform — and the
    query parameters. *)

open Cypher_graph
open Cypher_table

type t

type commit = {
  c_base : Graph.t;  (** the committed state the commit started from *)
  c_graph : Graph.t;  (** the committed state the commit produced *)
  c_delta : Graph.delta option;
      (** the entity delta between [c_base] and [c_graph], computed once
          per durable commit so nested transactions merged into their
          enclosing frame yield one coalesced delta; [None] when the
          graph journal was truncated across the span (consumers fall
          back to the whole of [c_graph]) *)
  c_traces : int list;
      (** trace ids of the requests whose statements updated the graph,
          in execution order, each once; empty when none was traced *)
}
(** What one durable commit carries: the graph span and its delta — the
    write-ahead log records the change, incremental consumers such as
    view maintenance read it — and the traces that commit lineage
    follows. *)

val create :
  ?schema:Cypher_schema.Schema.t ->
  ?params:(string * Cypher_values.Value.t) list ->
  ?mode:Cypher_engine.Engine.mode ->
  ?on_commit:(commit -> unit) ->
  Graph.t ->
  t
(** Every session owns a query-plan cache of 128 statements: repeated
    statements skip lexing, parsing and — while the graph is unchanged —
    planning.  Updates bump the graph version, so the next run of a
    cached statement prepares it again against fresh statistics.

    [on_commit] makes the session durable: it is called with a {!commit}
    record exactly when effects become permanent — at the outermost
    {!commit}, or immediately for an auto-committed update outside any
    transaction.  Statements of a rolled-back (or schema-rejected)
    transaction are never reported and leave no trace in the delta; a
    commit that updated nothing (read-only statements, or everything
    rolled back) is not reported.

    The hook decides the durability story, not the session: the store's
    local session appends and fsyncs inside the hook, while the network
    server's hook only {e captures} the commit — the connection hands it
    to the store's WAL group commit after releasing the writer lock, so
    concurrent commits can share one fsync. *)

val graph : t -> Graph.t

val set_graph : t -> Graph.t -> unit
(** Re-bases the session on a new graph without running a statement —
    the network server uses this to sync a connection's session to the
    latest committed state before each request.  Raises
    [Invalid_argument] while a transaction is open. *)

val plan_cache : t -> Cypher_engine.Engine.plan_cache
(** This session's plan cache, for callers (the server's read path) that
    execute via {!Cypher_engine.Engine.query_cached} directly. *)

val set_params : t -> (string * Cypher_values.Value.t) list -> unit

val run : t -> string -> (Table.t, Cypher_engine.Engine.error) result
(** Executes one statement against the current state.  Updates are
    applied immediately (auto-commit when no transaction is open) and
    validated against the schema; a violating statement is rejected with
    a [Runtime_error] and leaves the state untouched.  Engine errors are
    returned unchanged. *)

val begin_tx : t -> unit
(** Opens a (possibly nested) transaction: snapshots the current graph. *)

val commit : t -> (unit, Cypher_engine.Engine.error) result
(** Closes the innermost transaction, keeping its effects.  The schema is
    validated at the outermost commit; a violation rolls back instead.
    Both that and a commit with no open transaction are a
    [Runtime_error]. *)

val rollback : t -> (unit, Cypher_engine.Engine.error) result
(** Discards all changes since the matching {!begin_tx}; a
    [Runtime_error] if no transaction is open. *)

val in_transaction : t -> bool
val depth : t -> int

val cache_stats : t -> Cypher_engine.Engine.cache_stats
(** Hit/miss/replan counters of this session's plan cache. *)

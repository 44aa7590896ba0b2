(** Morsel-driven parallel execution of read-only plans.

    {!run} produces the {e same table in the same row order} as
    {!Exec.run}: the leaf scan's output (or a multi-row driving table)
    is split into contiguous morsels, the streaming pipeline above it
    runs per morsel on worker domains, and results merge at the first
    pipeline breaker — ordered concatenation for plain streams,
    per-morsel pre-aggregation combined in morsel order for Aggregate
    (bitwise-identical even for non-associative float folds), a
    stability-preserving k-way merge for Sort, and per-morsel push-down
    for Limit and Distinct.  Everything above that breaker, and any
    plan shape that does not decompose, runs sequentially.

    Error semantics match the sequential executor's first-error
    behaviour: the lowest-index morsel's exception is re-raised.

    The graph, config and plan are shared across domains read-only;
    callers must guarantee the plan is read-only (the engine only
    routes reads here — writes stay single-writer). *)

open Cypher_graph
open Cypher_table
open Cypher_semantics

type runner = {
  workers : int;  (** parallelism budget, the calling domain included *)
  run_tasks : int -> (int -> unit) -> unit;
      (** [run_tasks n f] executes [f 0 .. f (n-1)] each exactly once,
          possibly on other domains, returning once all have finished.
          [f] must not raise.  The engine supplies
          {!Cypher_engine.Domain_pool.run}; tests can supply a
          sequential or shuffling runner. *)
}

val run :
  runner -> Config.t -> Graph.t -> fields:string list -> Exec.program -> Table.t ->
  Table.t
(** Drop-in parallel replacement for {!Exec.run}.  Falls back to the
    sequential executor when [workers <= 1], when the source has fewer
    than two rows, or when the plan's bottom operator is a pipeline
    breaker. *)

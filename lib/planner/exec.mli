(** Volcano-style tuple-at-a-time execution of physical plans.

    Rows flow through the operator tree as a lazy sequence, so LIMIT
    stops producing work upstream — the "simple tuple-at-a-time
    iterator-based execution model" of the paper's Section 2.

    A plan runs as a {!program}: every operator's output schema is
    static, so each variable gets a slot and a row is a [Value.t array]
    rather than a name-keyed record.  Whether an operator binds a
    variable or checks it against an existing binding, and which names
    OPTIONAL pads with null, is decided when the program is compiled.
    Every expression is compiled once ({!Compile}).  Rows become
    {!Record.t}s only at the result boundary: {!rows}, {!run} and
    {!run_profiled}. *)

open Cypher_graph
open Cypher_table
open Cypher_semantics

type program
(** A plan compiled for driving rows over a given set of fields.
    Immutable: one program may run on several domains at once. *)

val compile : input:string list -> Plan.t -> program
(** [compile ~input plan]: [plan] compiled for driving rows whose fields
    are [input]. *)

val rows :
  Config.t -> Graph.t -> program -> Record.t Seq.t -> Record.t Seq.t
(** Executes the program with the given argument rows, which must have
    the fields it was compiled for. *)

val run :
  Config.t -> Graph.t -> fields:string list -> program -> Table.t -> Table.t
(** Runs a program against a driving table and materialises the result
    with the given output fields.  Raises [Invalid_argument] when the
    table's fields are not those the program was compiled for. *)

type profile = { prof_rows : int; prof_hits : int; prof_ns : int }
(** One operator's PROFILE measurements: rows produced, db hits (store
    accesses, see {!Graph.db_hits}) and monotonic-clock nanoseconds.  As
    returned by {!run_profiled} the hits and time are {e inclusive} of
    the operator's inputs — a pull forces the inputs' pulls inside it;
    {!self_profile} recovers per-operator self costs. *)

val run_profiled :
  Config.t -> Graph.t -> fields:string list -> program -> Table.t ->
  Table.t * (Plan.t -> profile)
(** Like {!run}, additionally measuring every operator (PROFILE): rows
    produced, db hits and elapsed time.  Db-hit counting is enabled for
    the duration of the run.  The returned function maps each operator
    of the program's plan (by physical identity) to its measurements. *)

val self_profile : (Plan.t -> profile) -> Plan.t -> profile
(** Converts {!run_profiled}'s inclusive measurements into the node's
    own share: hits and time minus those of its direct inputs (clamped
    at zero — per-pull clock reads make tiny negatives possible). *)

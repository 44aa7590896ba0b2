(** The slow-query log: queries whose wall-clock time reaches a
    configurable threshold are reported as one JSON line each, with
    query text, mode, rows, total time and the per-span breakdown.
    Disarmed by default; arming costs the engine one atomic load per
    query plus a {!Trace} collector around each statement.  It reads
    the engine's one {!Query_record.t} per query. *)

val set_threshold_ms : float option -> unit
(** [Some ms] arms the log (0. logs every query); [None] disarms it.
    Raises [Invalid_argument] on a negative threshold. *)

val threshold_ms : unit -> float option
val armed : unit -> bool

val set_sink : (string -> unit) option -> unit
(** Where the JSON lines go; [None] restores the default (stderr). *)

val set_conn : string option -> unit
(** Labels the calling thread with a connection/session name, kept in a
    {!Per_thread} value; the engine stamps it into the records of
    queries run on this thread.  [None] clears the label (a server does
    this on disconnect). *)

val current_conn : unit -> string
(** The calling thread's connection label, or [""] when unset. *)

val note : Query_record.t -> unit
(** Reports one finished query; writes to the sink only when armed and
    its [elapsed_us] is at or above the threshold.  The line's [mode] is
    the record's, suffixed [+reference-fallback] when the planner
    refused the query.  Its [trace_id] (in hex) joins the line against
    the trace JSONL, its [fingerprint] (the hash, in hex) against
    [:queries] output, and its [conn] names the server
    connection/session that ran the query; each is omitted when 0 or
    empty. *)

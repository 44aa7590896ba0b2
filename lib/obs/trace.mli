(** Trace spans: monotonic-clock timers around engine phases (parse, plan,
    execute, commit, fsync, checkpoint, lock acquisition…) emitting
    JSON-lines events to an optional sink.  With no sink attached and no
    collector open, {!with_span} costs two atomic loads — it is left in
    every hot path permanently (benchmark B15 keeps this honest). *)

type ctx = { trace_id : int; parent_span : int }
(** A distributed-trace context: [trace_id] names the end-to-end request
    and [parent_span] is the span id the next child span points at.
    Ids are 63-bit positive ints; 0 is reserved for "no id". *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Runs the thunk inside a named span.  On completion (normal or
    exceptional) the span is emitted to the sink, if any, and its
    duration is added to the calling thread's open collector, if any.
    Spans nest per thread; the emitted [depth] field is the number of
    enclosing spans still open on the same thread. *)

val note : ?ctx:ctx -> ?attrs:(string * string) list -> string -> int -> unit
(** [note name dur_us] records a span that was timed externally: it is
    emitted to the sink and added to the calling thread's collector as
    if a [with_span] of that duration had just completed here.  The
    engine marks a reference fallback with it.  [?ctx] emits the span
    under an explicit trace context instead of the calling thread's —
    the group-commit flush leader, the replica applier and view refresh
    report lineage spans for commits that belong to other requests'
    traces. *)

(** {1 Trace context}

    Distributed correlation: a context installed on a thread stamps
    every span it emits with [trace_id] (the end-to-end request id) and
    chained [span_id]/[parent_span_id] links.  The server installs the
    remote caller's context for the duration of one request so engine
    and storage spans nest under the client's span across the wire. *)

val new_id : unit -> int
(** A fresh 63-bit positive id (never 0; 0 means "no id"). *)

val id_to_hex : int -> string
(** The 16-hex-digit rendering used in span JSON. *)

val set_context : ctx option -> unit
(** Installs (or clears, with [None]) the calling thread's context. *)

val current_context : unit -> ctx option

val with_context : ctx -> (unit -> 'a) -> 'a
(** Runs the thunk with [ctx] installed, restoring the previous context
    afterwards (normal or exceptional return). *)

val current_trace_id : unit -> int
(** The installed context's trace id, or 0 when none. *)

val current_span_id : unit -> int
(** The id the next child span would take as parent, or 0 when none. *)

val set_sink : (string -> unit) option -> unit
(** Attaches a consumer for completed-span JSON lines (one object per
    line, no trailing newline), or detaches it with [None].  The
    consumer runs on the thread that closed the span. *)

val to_file : string -> unit
(** Appends span events to a JSONL file (the CLI's [--trace PATH]). *)

val close : unit -> unit
(** Detaches and closes a {!to_file} sink; detaches any other sink. *)

val enabled : unit -> bool

(** {1 Per-thread span collection}

    The slow-query log's per-phase breakdown: between [begin_collect]
    and [end_collect], every span completed on the calling thread adds
    its duration to a per-name running total.  A thread's collector and
    span depth are {!Per_thread} values, like its trace context: no lock
    is taken on the span path, and a thread back at depth 0 with no
    collector keeps no state. *)

val begin_collect : unit -> unit
val end_collect : unit -> (string * int) list
(** Aggregated [(span name, Σ duration µs)] in first-seen order; empty
    when no collector was open. *)

val collecting : unit -> bool
(** Whether any thread currently holds an open collector. *)

val now_us : unit -> int
(** The clock used by spans: monotonic microseconds (arbitrary epoch). *)

val json_escape : string -> string
(** JSON string-body escaping, shared with the slow-query log and the
    registry's JSON exposition. *)

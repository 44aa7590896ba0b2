(** The process-wide metrics registry: named counters, gauges and
    power-of-two latency histograms, with Prometheus-style text and JSON
    exposition.  Engine, storage and server series all live here, so one
    [:metrics] read-out (local or over the wire) shows the whole
    process. *)

val set_enabled : bool -> unit
(** Master switch: when [false], every update below is a no-op.  Used by
    benchmark B15 to price the instrumentation; defaults to [true]. *)

val is_enabled : unit -> bool

(** {1 Counters} *)

type counter

val counter : ?help:string -> string -> counter
(** Registers (or retrieves — registration is idempotent) the counter
    with that name.  Raises [Invalid_argument] if the name is already
    bound to another metric kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : ?help:string -> string -> gauge
val gauge_incr : gauge -> unit
val gauge_decr : gauge -> unit
val gauge_set : gauge -> int -> unit
val gauge_value : gauge -> int

(** {1 Histograms}

    Observations land in power-of-two microsecond buckets (1µs … ~67s,
    then an open-ended last bucket); an exact running maximum is kept on
    the side so the open bucket can report the true extreme. *)

type histogram

val histogram : ?help:string -> string -> histogram

val unregistered_histogram : unit -> histogram
(** A histogram outside the registry: never exposed and never zeroed by
    {!reset_all}, but paused like every series by [set_enabled false].
    {!Qstats} keeps one per fingerprint. *)

val observe_us : histogram -> int -> unit
val observe_s : histogram -> float -> unit

type quantile = { q_us : int; saturated : bool }
(** [q_us] is the upper bound of the bucket containing the quantile,
    clamped to the exact maximum.  [saturated] means the quantile fell in
    the open-ended last bucket: [q_us] then reports the exact running
    maximum — the resolution promise of the bucket bounds no longer
    holds, and the read-out says so instead of silently clamping. *)

val quantile : histogram -> float -> quantile
(** Any quantile in [0, 1]; monotone in its argument. *)

type hist_snapshot = {
  count : int;
  sum_us : int;
  max_us : int;
  quantiles : (float * quantile) list;
}

val hist_snapshot : ?qs:float list -> histogram -> hist_snapshot
(** One read of a histogram; [qs] defaults to [[0.5; 0.95; 0.99]].
    Updates are lock-free, so a snapshot taken while writers are active
    may run at most one observation ahead in the buckets relative to
    [count] — never behind, so quantile ranks always resolve. *)

(** {1 Exposition} *)

type sample = Int_sample of string * int | Float_sample of string * float

val samples : unit -> sample list
(** Flat (name, value) pairs in registration order; a histogram
    contributes [_count], [_sum_us], [_p50_us], [_p95_us], [_p99_us],
    [_max_us] and [_saturated] samples. *)

val sample_name : sample -> string

val expose : unit -> string
(** Prometheus text exposition format (cumulative [le] buckets). *)

val expose_json : unit -> string
(** The {!samples} as one flat JSON object. *)

val reset_all : unit -> unit
(** Zeroes every registered series.  For tests and benchmarks only. *)

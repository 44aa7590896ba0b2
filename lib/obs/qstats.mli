(** Workload introspection, [pg_stat_statements]-style: query texts are
    normalized into fingerprints (literals and parameters masked, case
    and whitespace canonicalized) and a bounded table aggregates calls,
    errors, rows, db hits, plan-cache hits, latency quantiles, and the
    last trace id per fingerprint.  The engine feeds it each query's
    {!Query_record.t} from its single observation point; the server
    exposes it over the wire and the CLI renders it as [:queries]. *)

val set_enabled : bool -> unit
(** Collection switch (default off, so a bare engine pays one atomic
    load per query): [Server.start] and the CLI's [:queries] arm it. *)

val enabled : unit -> bool

val fingerprint : string -> Query_record.fingerprint
(** The normalized text — comments stripped, whitespace canonicalized,
    string/number literals masked to [?], parameters to [$?], keywords
    uppercased, identifiers kept verbatim — and its FNV-1a hash, folded
    to a positive 63-bit int: the stable identity shown (in hex) by
    [:queries] and the slowlog.  Not cached here: the plan cache keeps a
    text's fingerprint beside its one parse. *)

val observe : Query_record.t -> unit
(** Records one execution under the record's fingerprint.  Its
    [db_hits] may be 0 when the run was not profiled; its [trace] is 0
    when the request carried no trace context.  The caller checks
    {!enabled}. *)

type stat = {
  s_hash : int;
  s_query : string;  (** normalized text *)
  s_calls : int;
  s_errors : int;
  s_rows : int;  (** Σ rows returned *)
  s_db_hits : int;
  s_cache_hits : int;  (** plan-cache hits *)
  s_total_us : int;
  s_p50_us : int;
      (** power-of-two bucket resolution, from a
          {!Registry.unregistered_histogram}: [Registry.set_enabled false]
          pauses these buckets *)
  s_p95_us : int;
  s_max_us : int;  (** exact *)
  s_last_trace : int;  (** 0 when no traced request ran the shape *)
}

val snapshot : unit -> stat list
(** All tracked fingerprints, heaviest (Σ elapsed) first. *)

val reset : unit -> unit

(* The record of one finished query.  The engine builds it once, at its
   single observation point, and every observer reads that record: the
   registry's engine series, the per-fingerprint statistics ({!Qstats})
   and the slow-query log ({!Slowlog}).  A field is here because one of
   them reads it. *)

type fingerprint = { normalized : string; hash : int }
(* A text's shape, from {!Qstats.fingerprint}: the normalized text and
   its 63-bit hash. *)

(* The fingerprint of a query no observer reads: hash 0 is omitted from
   slow lines. *)
let no_fingerprint = { normalized = ""; hash = 0 }

type t = {
  text : string;
  fingerprint : fingerprint;
  mode : string;  (* the mode asked for: "planned" or "reference" *)
  fallback : string option;
      (* the planner's refusal, when a planned query ran on the
         reference evaluator *)
  elapsed_us : int;
  rows : int;  (* 0 on error *)
  db_hits : int;  (* the query's own; 0 unless db-hit counting was on *)
  cache_hit : bool;  (* the text's plan-cache lookup was a hit *)
  error : bool;
  trace : int;  (* the request's trace id, 0 when untraced *)
  conn : string;  (* the connection label, "" when unset *)
  spans : (string * int) list;
      (* Σ µs per span name; empty unless the slow log is armed *)
}

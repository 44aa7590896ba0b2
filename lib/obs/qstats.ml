(* Workload introspection, pg_stat_statements-style: query texts are
   normalized into fingerprints (literals and parameters masked, case
   and whitespace canonicalized) and a bounded table keeps per-
   fingerprint aggregates — call/error counts, rows, db hits, plan-cache
   hits, a latency histogram, and the last trace id that executed the
   shape.  The table lives here rather than in the registry because
   registry series are process-global *names*; a per-fingerprint
   histogram needs per-entry storage with eviction, so each entry keeps
   a {!Registry.unregistered_histogram}.

   A query's fingerprint arrives in its {!Query_record.t}: the plan cache
   computes it once per text, beside the text's one parse.  The table is
   guarded by one mutex; the per-query cost is a Hashtbl find, a dozen
   integer stores and one histogram observation — benchmark B20 prices
   this against the B14 server read workload. *)

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* --- fingerprint normalization ---------------------------------------- *)

(* Keywords are uppercased so [match]/[MATCH] collide; identifiers keep
   their spelling and case so distinct query shapes stay distinct. *)
let keywords =
  let tbl = Hashtbl.create 97 in
  List.iter
    (fun k -> Hashtbl.replace tbl k ())
    [
      "MATCH"; "OPTIONAL"; "WHERE"; "RETURN"; "WITH"; "UNWIND"; "CREATE";
      "DELETE"; "DETACH"; "SET"; "REMOVE"; "MERGE"; "ON"; "CALL"; "YIELD";
      "UNION"; "ALL"; "AS"; "ORDER"; "BY"; "SKIP"; "LIMIT"; "ASC";
      "ASCENDING"; "DESC"; "DESCENDING"; "AND"; "OR"; "XOR"; "NOT"; "IN";
      "STARTS"; "ENDS"; "CONTAINS"; "IS"; "NULL"; "TRUE"; "FALSE";
      "DISTINCT"; "EXISTS"; "CASE"; "WHEN"; "THEN"; "ELSE"; "END";
      "FOREACH"; "BEGIN"; "COMMIT"; "ROLLBACK"; "EXPLAIN"; "PROFILE";
      "INDEX"; "DROP"; "USING";
    ];
  tbl

let is_word_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_word c = is_word_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* Tokens that glue to their neighbour: no space is emitted before a
   closer/separator or after an opener, which reproduces conventional
   Cypher spacing regardless of the input's. *)
let no_space_before t =
  match t with ")" | "]" | "}" | "," | "." | ";" | ":" -> true | _ -> false

let no_space_after t =
  match t with "(" | "[" | "{" | "." | ":" -> true | _ -> false

(* One linear scan: strips comments, collapses whitespace, masks string
   and numeric literals to [?] and parameters to [$?], uppercases
   keywords, and rebuilds the text from tokens with canonical spacing. *)
let normalize text =
  let n = String.length text in
  let buf = Buffer.create n in
  let last = ref "" in
  let push tok =
    if
      Buffer.length buf > 0
      && (not (no_space_after !last))
      && not (no_space_before tok)
    then Buffer.add_char buf ' ';
    Buffer.add_string buf tok;
    last := tok
  in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then begin
      (* line comment *)
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '*' then begin
      i := !i + 2;
      while !i + 1 < n && not (text.[!i] = '*' && text.[!i + 1] = '/') do
        incr i
      done;
      i := min n (!i + 2)
    end
    else if c = '\'' || c = '"' then begin
      (* string literal, backslash escapes honoured *)
      let quote = c in
      incr i;
      let fin = ref false in
      while !i < n && not !fin do
        if text.[!i] = '\\' && !i + 1 < n then i := !i + 2
        else if text.[!i] = quote then begin
          incr i;
          fin := true
        end
        else incr i
      done;
      push "?"
    end
    else if c = '`' then begin
      (* backtick-quoted identifier: kept verbatim, quotes included *)
      let j = ref (!i + 1) in
      while !j < n && text.[!j] <> '`' do
        incr j
      done;
      let stop = min n (!j + 1) in
      push (String.sub text !i (stop - !i));
      i := stop
    end
    else if c = '$' then begin
      incr i;
      while !i < n && is_word text.[!i] do
        incr i
      done;
      push "$?"
    end
    else if is_digit c then begin
      (* number (decimal, hex, or exponent form) *)
      while
        !i < n
        && (is_digit text.[!i]
           || text.[!i] = '.'
           || text.[!i] = 'x'
           || text.[!i] = 'X'
           || (text.[!i] >= 'a' && text.[!i] <= 'f')
           || (text.[!i] >= 'A' && text.[!i] <= 'F'))
      do
        incr i
      done;
      if
        !i < n
        && (text.[!i] = 'e' || text.[!i] = 'E')
        && !i + 1 < n
        && (is_digit text.[!i + 1] || text.[!i + 1] = '+' || text.[!i + 1] = '-')
      then begin
        i := !i + 2;
        while !i < n && is_digit text.[!i] do
          incr i
        done
      end;
      push "?"
    end
    else if is_word_start c then begin
      let j = ref !i in
      while !j < n && is_word text.[!j] do
        incr j
      done;
      let word = String.sub text !i (!j - !i) in
      i := !j;
      let upper = String.uppercase_ascii word in
      push (if Hashtbl.mem keywords upper then upper else word)
    end
    else begin
      push (String.make 1 c);
      incr i
    end
  done;
  Buffer.contents buf

(* FNV-1a over the normalized text, folded to a positive 63-bit int. *)
let hash_normalized s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Int64.to_int !h land max_int

let fingerprint text : Query_record.fingerprint =
  let normalized = normalize text in
  { normalized; hash = hash_normalized normalized }

(* --- per-fingerprint statistics --------------------------------------- *)

type entry = {
  e_query : string;
  e_hash : int;
  mutable e_calls : int;
  mutable e_errors : int;
  mutable e_rows : int;
  mutable e_db_hits : int;
  mutable e_cache_hits : int;
  mutable e_total_us : int;
  mutable e_max_us : int;
  e_latency : Registry.histogram;
  mutable e_last_trace : int;
  mutable e_stamp : int;
}

let table_cap = 512
let table : (int, entry) Hashtbl.t = Hashtbl.create 128
let stamp = ref 0
let lock = Mutex.create ()

(* When the table is full a new fingerprint evicts the least-recently
   executed entry: a workload's steady-state shapes stay put while
   one-off shapes churn through the tail. *)
let evict_oldest () =
  let victim = ref None in
  Hashtbl.iter
    (fun h e ->
      match !victim with
      | Some (_, s) when s <= e.e_stamp -> ()
      | _ -> victim := Some (h, e.e_stamp))
    table;
  match !victim with Some (h, _) -> Hashtbl.remove table h | None -> ()

let observe (r : Query_record.t) =
  let { Query_record.normalized; hash } = r.fingerprint in
  Mutex.lock lock;
  incr stamp;
  let e =
    match Hashtbl.find_opt table hash with
    | Some e -> e
    | None ->
      if Hashtbl.length table >= table_cap then evict_oldest ();
      let e =
        {
          e_query = normalized;
          e_hash = hash;
          e_calls = 0;
          e_errors = 0;
          e_rows = 0;
          e_db_hits = 0;
          e_cache_hits = 0;
          e_total_us = 0;
          e_max_us = 0;
          e_latency = Registry.unregistered_histogram ();
          e_last_trace = 0;
          e_stamp = 0;
        }
      in
      Hashtbl.replace table hash e;
      e
  in
  e.e_calls <- e.e_calls + 1;
  if r.error then e.e_errors <- e.e_errors + 1;
  e.e_rows <- e.e_rows + r.rows;
  e.e_db_hits <- e.e_db_hits + r.db_hits;
  if r.cache_hit then e.e_cache_hits <- e.e_cache_hits + 1;
  e.e_total_us <- e.e_total_us + r.elapsed_us;
  if r.elapsed_us > e.e_max_us then e.e_max_us <- r.elapsed_us;
  Registry.observe_us e.e_latency r.elapsed_us;
  if r.trace <> 0 then e.e_last_trace <- r.trace;
  e.e_stamp <- !stamp;
  Mutex.unlock lock

type stat = {
  s_hash : int;
  s_query : string;
  s_calls : int;
  s_errors : int;
  s_rows : int;
  s_db_hits : int;
  s_cache_hits : int;
  s_total_us : int;
  s_p50_us : int;
  s_p95_us : int;
  s_max_us : int;
  s_last_trace : int;
}

let snapshot () =
  Mutex.lock lock;
  let stats =
    Hashtbl.fold
      (fun _ e acc ->
        {
          s_hash = e.e_hash;
          s_query = e.e_query;
          s_calls = e.e_calls;
          s_errors = e.e_errors;
          s_rows = e.e_rows;
          s_db_hits = e.e_db_hits;
          s_cache_hits = e.e_cache_hits;
          s_total_us = e.e_total_us;
          s_p50_us = (Registry.quantile e.e_latency 0.50).Registry.q_us;
          s_p95_us = (Registry.quantile e.e_latency 0.95).Registry.q_us;
          s_max_us = e.e_max_us;
          s_last_trace = e.e_last_trace;
        }
        :: acc)
      table []
  in
  Mutex.unlock lock;
  (* heaviest shapes first: total time, then calls, then text for
     determinism *)
  List.sort
    (fun a b ->
      match compare b.s_total_us a.s_total_us with
      | 0 -> (
        match compare b.s_calls a.s_calls with
        | 0 -> compare a.s_query b.s_query
        | c -> c)
      | c -> c)
    stats

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  stamp := 0;
  Mutex.unlock lock

open Cypher_graph
open Cypher_table
open Cypher_ast
open Ast
open Cypher_semantics
module Build = Cypher_planner.Build
module Exec = Cypher_planner.Exec
module Plan = Cypher_planner.Plan
module Registry = Cypher_obs.Registry
module Trace = Cypher_obs.Trace
module Slowlog = Cypher_obs.Slowlog
module Qstats = Cypher_obs.Qstats
module Query_record = Cypher_obs.Query_record

(* force the algo.* procedures to link with the engine *)
let () = Cypher_procs.Procs.ensure ()

(* --- observability ---------------------------------------------------- *)

let m_queries_planned =
  Registry.counter ~help:"queries executed in Planned mode"
    "cypher_engine_queries_planned_total"

let m_queries_reference =
  Registry.counter ~help:"queries executed in Reference mode"
    "cypher_engine_queries_reference_total"

let m_query_errors =
  Registry.counter ~help:"queries rejected with an error"
    "cypher_engine_query_errors_total"

let m_rows_produced =
  Registry.counter ~help:"result rows returned by all queries"
    "cypher_engine_rows_produced_total"

let m_query_latency =
  Registry.histogram ~help:"end-to-end query latency (microsecond buckets)"
    "cypher_engine_query_latency"

let m_reference_fallback =
  Registry.counter
    ~help:
      "Planned-mode queries silently re-run on the reference evaluator \
       because the planner raised Unsupported"
    "cypher_engine_reference_fallback_total"

type mode = Reference | Planned

type outcome = { graph : Graph.t; table : Table.t }

let mode_name = function Planned -> "planned" | Reference -> "reference"

(* Clauses executed by the reference implementation between plan
   segments: updates and CALL. *)
let is_update_clause = function
  | C_create _ | C_delete _ | C_set _ | C_remove _ | C_merge _ | C_call _
  | C_foreach _ ->
    true
  | C_match _ | C_with _ | C_unwind _ -> false

(* Splits a clause list into alternating read segments and single update
   clauses, preserving order. *)
let segment clauses =
  let rec go acc current = function
    | [] -> List.rev (`Read (List.rev current) :: acc)
    | c :: rest when is_update_clause c ->
      go (`Update c :: `Read (List.rev current) :: acc) [] rest
    | c :: rest -> go acc (c :: current) rest
  in
  go [] [] clauses

(* Statistics are cached per graph version; versions are drawn from a
   process-global counter, so equal versions always denote the same graph
   value and the cache can never serve stale numbers.  The cache is
   process-global too and the server plans on concurrent threads, hence
   the mutex; a racing miss at worst collects the statistics twice. *)
let stats_cache : (int * Stats.t) option ref = ref None
let stats_lock = Mutex.create ()

let stats_of g =
  let cached =
    Mutex.lock stats_lock;
    let c = !stats_cache in
    Mutex.unlock stats_lock;
    c
  in
  match cached with
  | Some (v, s) when v = Graph.version g -> s
  | _ ->
    let s = Stats.collect g in
    Mutex.lock stats_lock;
    stats_cache := Some (Graph.version g, s);
    Mutex.unlock stats_lock;
    s

(* --- the prepared form ------------------------------------------------- *)

(* A query compiled once, before any clause runs: each single query is
   its steps — a planned read segment or an update clause executed by the
   reference semantics — and UNION nodes join them.  [Error reason] is an
   unplanned query: the planner refused one of its segments, so the whole
   query runs on the reference evaluator. *)
type step = Read of Build.compiled | Update of clause

type tree =
  | Single of { steps : step list; returns : bool }
  | Union of { all : bool; left : tree; right : tree }

type prepared = (tree, string) result

(* Compiles every segment against one set of statistics.  A read segment
   after an update sees the fields the update produces
   ({!Clauses.update_fields}); a CALL without YIELD has no fields until it
   runs, so nothing may read past it.  This is the one place a planner
   refusal is caught. *)
let prepare g ast : prepared =
  Trace.with_span "plan" @@ fun () ->
  let stats = stats_of g in
  let single { sq_clauses; sq_return } =
    let rec go visible = function
      | [] -> []
      | `Read clauses :: rest ->
        let ret = if rest = [] then sq_return else None in
        let c = Build.compile_clauses ~stats ~visible clauses ret in
        Read c :: go c.Build.fields rest
      | `Update c :: rest -> (
        match (Clauses.update_fields c visible, rest, sq_return) with
        | Some fields, _, _ -> Update c :: go fields rest
        | None, [ `Read [] ], None -> [ Update c ]
        | None, _, _ ->
          raise
            (Build.Unsupported
               "CALL without YIELD has no known columns to read past"))
    in
    Single
      { steps = go [] (segment sq_clauses); returns = Option.is_some sq_return }
  in
  let rec tree = function
    | Q_single sq -> single sq
    | Q_union (l, r) -> Union { all = false; left = tree l; right = tree r }
    | Q_union_all (l, r) -> Union { all = true; left = tree l; right = tree r }
  in
  match tree ast with
  | t -> Ok t
  | exception Build.Unsupported reason -> Error reason

let run_tree cfg g tree =
  let rec steps g table = function
    | [] -> { graph = g; table }
    | Read { Build.prog; fields; _ } :: rest ->
      let table =
        Trace.with_span "execute" (fun () -> Exec.run cfg g ~fields prog table)
      in
      steps g table rest
    | Update c :: rest ->
      let s = Clauses.apply_clause cfg c { Clauses.graph = g; table } in
      steps s.Clauses.graph s.Clauses.table rest
  in
  let rec go g = function
    | Single { steps = ss; returns } ->
      let out = steps g Table.unit ss in
      if returns then out else { out with table = Table.empty ~fields:[] }
    | Union { all; left; right } ->
      let s1 = go g left in
      let s2 = go s1.graph right in
      let table = Table.union s1.table s2.table in
      { graph = s2.graph; table = (if all then table else Table.dedup table) }
  in
  go g tree

type error =
  | Parse_error of string
  | Syntax_error of string (* static scope violations *)
  | Type_error of string
  | Runtime_error of string
  | Unsupported of string

let error_message = function
  | Parse_error m -> "parse error: " ^ m
  | Syntax_error m -> "syntax error: " ^ m
  | Type_error m -> "type error: " ^ m
  | Runtime_error m -> "runtime error: " ^ m
  | Unsupported m -> "unsupported: " ^ m

let catching f =
  match f () with
  | v -> Ok v
  | exception Functions.Eval_error msg -> Error (Runtime_error msg)
  | exception Cypher_values.Value.Type_error msg -> Error (Type_error msg)
  | exception Invalid_argument msg -> Error (Runtime_error msg)
  | exception Division_by_zero -> Error (Runtime_error "division by zero")

(* --- statements -------------------------------------------------------- *)

(* Whether [t] starts with the lower-case [prefix], ignoring ASCII case.
   Every statement's dispatch runs it, so it allocates nothing. *)
let starts_with_ci ~prefix t =
  let n = String.length prefix in
  let rec from i =
    i = n || (Char.lowercase_ascii t.[i] = prefix.[i] && from (i + 1))
  in
  String.length t >= n && from 0

(* DDL outside the query grammar: CREATE INDEX ON :Label(key) and
   DROP INDEX ON :Label(key), as in Neo4j 3.x. *)
let parse_index_ddl text =
  let t = String.trim text in
  let action =
    if starts_with_ci ~prefix:"create index on" t then Some `Create
    else if starts_with_ci ~prefix:"drop index on" t then Some `Drop
    else None
  in
  match action with
  | None -> None
  | Some action -> (
    match String.index_opt t ':' with
    | None -> Some (Error "index DDL: expected :Label(key)")
    | Some i -> (
      let rest = String.sub t (i + 1) (String.length t - i - 1) in
      match String.index_opt rest '(' with
      | None -> Some (Error "index DDL: expected (key)")
      | Some j -> (
        let label = String.trim (String.sub rest 0 j) in
        let after = String.sub rest (j + 1) (String.length rest - j - 1) in
        match String.index_opt after ')' with
        | None -> Some (Error "index DDL: expected closing parenthesis")
        | Some k ->
          let key = String.trim (String.sub after 0 k) in
          Some (Ok (action, label, key)))))

let strip_prefix_kw kw text =
  let t = String.trim text in
  let n = String.length kw in
  if String.length t > n && starts_with_ci ~prefix:kw t && t.[n] = ' ' then
    Some (String.sub t n (String.length t - n))
  else None

(* Parse and scope check: everything about a query that does not depend
   on the graph. *)
let check_query ?bound text =
  match Cypher_parser.Parser.parse_query text with
  | Error e -> Error (Parse_error e)
  | Ok ast -> (
    match Scope_check.check_query ?bound ast with
    | Ok () -> Ok ast
    | Error e -> Error (Syntax_error e))

type statement =
  | Ddl of ([ `Create | `Drop ] * string * string)
  | Explain of Ast.query
  | Profile of Ast.query
  | Query of Ast.query

(* The one dispatch of a statement's text: index DDL, an EXPLAIN or
   PROFILE prefix, or a plain query. *)
let statement text =
  match parse_index_ddl text with
  | Some (Ok ddl) -> Ok (Ddl ddl)
  | Some (Error e) -> Error (Parse_error e)
  | None ->
    let wrap, body =
      match strip_prefix_kw "explain" text with
      | Some rest -> ((fun q -> Explain q), rest)
      | None -> (
        match strip_prefix_kw "profile" text with
        | Some rest -> ((fun q -> Profile q), rest)
        | None -> ((fun q -> Query q), text))
    in
    Result.map wrap (check_query body)

(* --- statement classification ----------------------------------------- *)

(* Whether a statement can mutate the graph, decided from the AST before
   execution.  The server uses this to route reads to a lock-free MVCC
   snapshot and writes to the single-writer path, instead of the old
   run-under-read-lock-then-discard-and-rerun dance that executed every
   update twice.  CALL is conservatively a write (a procedure may
   mutate); a Write-classified statement that turns out to touch nothing
   simply produces no commit.  Read_only is sound: no read clause can
   change the graph. *)
type stmt_class = Read_only | Update

let rec classify_ast = function
  | Q_single sq ->
    if List.exists is_update_clause sq.sq_clauses then Update else Read_only
  | Q_union (q1, q2) | Q_union_all (q1, q2) ->
    if classify_ast q1 = Update || classify_ast q2 = Update then Update
    else Read_only

(* EXPLAIN never executes; PROFILE executes read-only queries and falls
   back to EXPLAIN for updates — neither mutates.  A statement that is
   rejected before it runs is left to the lock-free read path, which
   reports the same error. *)
let class_of = function
  | Ddl _ -> Update
  | Query ast -> classify_ast ast
  | Explain _ | Profile _ -> Read_only

let classify text =
  match statement text with Ok stmt -> class_of stmt | Error _ -> Read_only

(* --- consumers of the prepared form ------------------------------------ *)

let reference config g ast =
  Trace.with_span "execute" (fun () ->
      let state = Clauses.run_query config g ast in
      { graph = state.Clauses.graph; table = state.Clauses.table })

(* Whether a query runs planned: the planner compiles only Planned-mode
   queries under the default morphism. *)
let plans config mode =
  mode = Planned && config.Config.morphism = Config.Edge_isomorphism

let render_explain g : prepared -> string = function
  | Error reason -> "(not planned: " ^ reason ^ ")\n"
  | Ok tree ->
    let stats = stats_of g in
    let buf = Buffer.create 256 in
    let rec go = function
      | Single { steps; _ } ->
        List.iter
          (function
            | Read { Build.plan; _ } ->
              Buffer.add_string buf
                (Cypher_planner.Cost.explain_with_estimates stats plan)
            | Update c ->
              Buffer.add_string buf
                (Format.asprintf "+ Update [%a]@." Cypher_ast.Pretty.pp_clause c))
          steps
      | Union { all; left; right } ->
        go left;
        Buffer.add_string buf (if all then "UNION ALL\n" else "UNION\n");
        go right
    in
    go tree;
    Buffer.contents buf

(* PROFILE time rendering: microseconds below a millisecond, then ms. *)
let pp_prof_ns ns =
  let us = float_of_int ns /. 1e3 in
  if us < 1000. then Printf.sprintf "%.1fus" us
  else Printf.sprintf "%.2fms" (us /. 1000.)

(* Only a single read step is executed; anything else shows its EXPLAIN
   rendering and never runs. *)
let render_profile config g : prepared -> (string, error) result = function
  | Error reason -> Error (Unsupported reason)
  | Ok (Single { steps = [ Read { Build.plan; fields; prog } ]; _ }) ->
    let stats = stats_of g in
    catching (fun () ->
        let table, actual =
          Trace.with_span "execute" (fun () ->
              Exec.run_profiled config g ~fields prog Table.unit)
        in
        let rendered =
          Format.asprintf "%a"
            (Plan.pp_annotated ~annotate:(fun node ->
                 let incl = actual node in
                 let self = Exec.self_profile actual node in
                 Printf.sprintf
                   "  (est. %.1f rows, actual %d rows, %d db-hits, %s)"
                   (Cypher_planner.Cost.estimate stats node)
                     .Cypher_planner.Cost.rows incl.Exec.prof_rows
                   self.Exec.prof_hits (pp_prof_ns self.Exec.prof_ns)))
            plan
        in
        let total = actual plan in
        rendered
        ^ Printf.sprintf "total: %d rows, %d db-hits, %s\n"
            (Table.row_count table) total.Exec.prof_hits
            (pp_prof_ns total.Exec.prof_ns))
  | Ok _ as p -> Ok (render_explain g p)

(* EXPLAIN/PROFILE as query prefixes return the rendering as a
   one-column table, so the same plans travel over the wire protocol
   as any other result. *)
let plan_table text =
  let rows =
    List.filter_map
      (fun line -> if line = "" then None else Some (Record.of_list [ ("plan", Cypher_values.Value.String line) ]))
      (String.split_on_char '\n' text)
  in
  Table.create ~fields:[ "plan" ] rows

(* What a runner knows of one execution beyond its result: the
   planner's refusal, when a Planned-mode query fell back to the
   reference evaluator, and — on the cached path — whether the text's
   lookup hit and the entry's fingerprint.  {!observe_query} turns it
   into the query's record. *)
type ran = {
  result : (outcome, error) result;
  fallback : string option;
  cache_hit : bool;
  fingerprint : Query_record.fingerprint option;
}

let ran ?fallback result = { result; fallback; cache_hit = false; fingerprint = None }

(* Executes a dispatched statement: the shared body of the uncached and
   the cached path, which differ only in where [prepare] finds the
   prepared form.  An unplanned query (a planner limitation such as ORDER
   BY on a non-projected variable under DISTINCT) runs on the reference
   evaluator rather than failing — but never silently: the downgrade is
   traced with its reason and returned as [fallback], which the query's
   record carries to the counter and the slow-query log. *)
let run_statement ~prepare config mode g = function
  | Ddl (action, label, key) ->
    let g =
      match action with
      | `Create -> Graph.create_index g ~label ~key
      | `Drop -> Graph.drop_index g ~label ~key
    in
    ran (Ok { graph = g; table = Table.empty ~fields:[] })
  | Explain q ->
    ran
      (Result.map
         (fun p -> { graph = g; table = plan_table p })
         (catching (fun () -> render_explain g (prepare q))))
  | Profile q ->
    ran
      (Result.map
         (fun p -> { graph = g; table = plan_table p })
         (render_profile config g (prepare q)))
  | Query ast when plans config mode -> (
    match catching (fun () -> prepare ast) with
    | Error e -> ran (Error e)
    | Ok (Ok tree) -> ran (catching (fun () -> run_tree config g tree))
    | Ok (Error reason) ->
      Trace.note ~attrs:[ ("reason", reason) ] "reference_fallback" 0;
      ran ~fallback:reason (catching (fun () -> reference config g ast)))
  | Query ast -> ran (catching (fun () -> reference config g ast))

let parse_statement text = Trace.with_span "parse" (fun () -> statement text)

(* Unobserved evaluation: the shared body of every public entry point.
   EXPLAIN/PROFILE prefixes and index DDL are handled here, so every
   caller — the server included — can ask for plans. *)
let query_raw config mode g text =
  match parse_statement text with
  | Error e -> ran (Error e)
  | Ok stmt -> run_statement ~prepare:(prepare g) config mode g stmt

let m_mode = function
  | Planned -> m_queries_planned
  | Reference -> m_queries_reference

(* The registry's engine series, read off the query's record. *)
let count_query (r : Query_record.t) =
  Registry.observe_us m_query_latency r.elapsed_us;
  if r.error then Registry.incr m_query_errors
  else Registry.add m_rows_produced r.rows;
  if Option.is_some r.fallback then Registry.incr m_reference_fallback

(* One observation per top-level engine call, built into one record that
   every observer reads: the registry series, the per-fingerprint
   workload statistics and — when armed — the slow-query log with its
   per-span breakdown.  The public entry points ({!query},
   {!query_cached}) wrap exactly once; everything they call internally
   goes through unobserved helpers, so nothing double-counts.  A query
   without a cache entry is fingerprinted here, and only when an
   observer reads the fingerprint. *)
let observe_query ~mode ~text f =
  Registry.incr (m_mode mode);
  let slow = Slowlog.armed () in
  if slow then Trace.begin_collect ();
  let t0 = Trace.now_us () in
  let ran, db_hits =
    match Graph.own_db_hits (fun () -> Trace.with_span "query" f) with
    | r -> r
    | exception e ->
      if slow then ignore (Trace.end_collect ());
      Registry.incr m_query_errors;
      raise e
  in
  let elapsed_us = Trace.now_us () - t0 in
  let spans = if slow then Trace.end_collect () else [] in
  let qstats = Qstats.enabled () in
  let r =
    {
      Query_record.text;
      fingerprint =
        (match ran.fingerprint with
        | Some fp -> fp
        | None when qstats || slow -> Qstats.fingerprint text
        | None -> Query_record.no_fingerprint);
      mode = mode_name mode;
      fallback = ran.fallback;
      elapsed_us;
      rows =
        (match ran.result with
        | Ok outcome -> Table.row_count outcome.table
        | Error _ -> 0);
      (* db hits are counted only while a profiled run has the counter
         on, and per thread: this query's own, 0 for an ordinary run *)
      db_hits;
      cache_hit = ran.cache_hit;
      error = Result.is_error ran.result;
      trace = Trace.current_trace_id ();
      conn = Slowlog.current_conn ();
      spans;
    }
  in
  count_query r;
  if qstats then Qstats.observe r;
  if slow then Slowlog.note r;
  ran.result

let query ?(config = Config.default) ?(mode = Planned) g text =
  observe_query ~mode ~text (fun () -> query_raw config mode g text)

let run_exn ?config ?mode g text =
  match query ?config ?mode g text with
  | Ok outcome -> outcome
  | Error e -> failwith (error_message e)

let run ?config ?mode g text = (run_exn ?config ?mode g text).table

let stream ?(config = Config.default) g text =
  Result.bind (check_query text) (fun ast ->
      match prepare g ast with
      | Ok (Single { steps = [ Read { Build.prog; _ } ]; _ }) ->
        Ok (Exec.rows config g prog (Seq.return Cypher_table.Record.empty))
      | Ok _ ->
        Error (Unsupported "stream: only read-only single queries can be streamed")
      | Error reason -> Error (Unsupported reason))

(* Splits a script on top-level semicolons.  String literals, comments
   and backtick identifiers are skipped the way the lexer skips them, so
   a semicolon inside one does not split. *)
let split_statements text =
  let n = String.length text in
  let out = ref [] and buf = Buffer.create 128 in
  let flush () =
    let s = String.trim (Buffer.contents buf) in
    Buffer.clear buf;
    if s <> "" then out := s :: !out
  in
  let i = ref 0 in
  while !i < n do
    (match text.[!i] with
    | ';' -> flush ()
    | ('\'' | '"') as quote ->
      Buffer.add_char buf quote;
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        Buffer.add_char buf text.[!i];
        if text.[!i] = '\\' && !i + 1 < n then begin
          incr i;
          Buffer.add_char buf text.[!i]
        end
        else if text.[!i] = quote then closed := true;
        incr i
      done;
      decr i
    | '/' when !i + 1 < n && text.[!i + 1] = '/' ->
      while !i < n && text.[!i] <> '\n' do incr i done;
      Buffer.add_char buf '\n'
    | '/' when !i + 1 < n && text.[!i + 1] = '*' ->
      let j = ref (!i + 2) in
      while !j + 1 < n && not (text.[!j] = '*' && text.[!j + 1] = '/') do
        incr j
      done;
      let last = min (n - 1) (!j + 1) in
      Buffer.add_string buf (String.sub text !i (last - !i + 1));
      i := last
    | '`' ->
      let last =
        Option.value ~default:(n - 1) (String.index_from_opt text (!i + 1) '`')
      in
      Buffer.add_string buf (String.sub text !i (last - !i + 1));
      i := last
    | c -> Buffer.add_char buf c);
    incr i
  done;
  flush ();
  List.rev !out

let run_script ?config ?mode g text =
  let rec go g last = function
    | [] -> Ok { graph = g; table = (match last with Some t -> t | None -> Table.empty ~fields:[]) }
    | stmt :: rest -> (
      match query ?config ?mode g stmt with
      | Error e ->
        Error (Printf.sprintf "in statement %S: %s" stmt (error_message e))
      | Ok outcome -> go outcome.graph (Some outcome.table) rest)
  in
  go g None (split_statements text)

let parse ?bound text =
  Trace.with_span "parse" (fun () -> check_query ?bound text)

let explain g text =
  Result.bind (parse text) (fun ast ->
      catching (fun () -> render_explain g (prepare g ast)))

let profile ?(config = Config.default) g text =
  Result.bind (parse text) (fun ast -> render_profile config g (prepare g ast))

let cross_check ?(config = Config.default) g text =
  match
    ( Result.map_error error_message (query ~config ~mode:Reference g text),
      Result.map_error error_message (query ~config ~mode:Planned g text) )
  with
  | Error _, Error _ ->
    (* both engines reject the query: that is agreement too *)
    Ok (Table.empty ~fields:[])
  | Error e, Ok _ ->
    Error ("reference engine failed where planned succeeded: " ^ e)
  | Ok _, Error e ->
    Error ("planned engine failed where reference succeeded: " ^ e)
  | Ok ref_out, Ok planned_out ->
    if Table.bag_equal ref_out.table planned_out.table then Ok ref_out.table
    else
      Error
        (Format.asprintf
           "engines disagree on %S:@.reference:@.%a@.planned:@.%a" text
           Table.pp ref_out.table Table.pp planned_out.table)

(* ------------------------------------------------------------------ *)
(* The query-plan cache                                                *)
(* ------------------------------------------------------------------ *)

(* One entry per statement text: the dispatched statement — parsed and
   scope-checked, valid against any graph — with what that one parse
   decides (its class and its fingerprint), and its prepared form tagged
   with the version of the graph whose statistics drove the compilation.
   A version mismatch keeps the statement but prepares it again, so
   updates invalidate cardinality estimates without paying for parsing
   again. *)
type cache_entry = {
  ce_stmt : statement;
  ce_class : stmt_class;
  ce_fingerprint : Query_record.fingerprint;
  mutable ce_prepared : (int * prepared) option;
}

type plan_cache = { entries : cache_entry Plan_cache.t; mutable replans : int }

type cache_stats = {
  cache_hits : int;
  cache_misses : int;
  cache_replans : int;
  cache_evictions : int;
}

let create_plan_cache () = { entries = Plan_cache.create (); replans = 0 }

let cache_stats c =
  {
    cache_hits = Plan_cache.hits c.entries;
    cache_misses = Plan_cache.misses c.entries;
    cache_replans = c.replans;
    cache_evictions = Plan_cache.evictions c.entries;
  }

(* The one parse of a text the cache does not hold. *)
let new_entry text =
  Result.map
    (fun stmt ->
      {
        ce_stmt = stmt;
        ce_class = class_of stmt;
        ce_fingerprint = Qstats.fingerprint text;
        ce_prepared = None;
      })
    (parse_statement text)

(* Classification is no lookup: it neither hits nor misses.  A text it
   parses is stored uncounted, so the execution that finds it next
   counts the miss its parse stands for. *)
let classify_cached ~cache text =
  match Plan_cache.peek cache.entries text with
  | Some entry -> entry.ce_class
  | None -> (
    match new_entry text with
    | Ok entry ->
      Plan_cache.add ~counted:false cache.entries text entry;
      entry.ce_class
    | Error _ -> Read_only)

(* The entry's prepared form for [g], prepared again when the graph
   version moved; only read statements count as replans. *)
let cached_prepare cache g entry ast =
  let version = Graph.version g in
  match entry.ce_prepared with
  | Some (v, p) when v = version -> p
  | prior ->
    let p = prepare g ast in
    if Option.is_some prior && classify_ast ast = Read_only then
      cache.replans <- cache.replans + 1;
    entry.ce_prepared <- Some (version, p);
    p

let query_cached ~cache ?(config = Config.default) ?(mode = Planned) g text =
  observe_query ~mode ~text @@ fun () ->
  if not (plans config mode) then query_raw config mode g text
  else
    let found =
      match Plan_cache.find cache.entries text with
      | Some found -> Ok found
      | None ->
        Result.map
          (fun entry ->
            Plan_cache.add cache.entries text entry;
            (entry, false))
          (new_entry text)
    in
    match found with
    | Error e -> ran (Error e)
    | Ok (entry, cache_hit) ->
      {
        (run_statement ~prepare:(cached_prepare cache g entry) config mode g
           entry.ce_stmt)
        with
        cache_hit;
        fingerprint = Some entry.ce_fingerprint;
      }

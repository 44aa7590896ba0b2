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

(* One observation per top-level engine call: mode and latency series,
   rows produced, per-fingerprint workload statistics, and — when armed
   — the slow-query log with its per-span breakdown.  The public entry
   points ({!query}, {!query_cached}) wrap exactly once; everything
   they call internally goes through unobserved helpers, so nothing
   double-counts.  [?cache_hit] is a cell the caller flips when the
   query resolved through the plan cache; [?fallback] is a cell
   {!run_prepared} fills with the planner's refusal when a Planned-mode
   query fell back to the reference evaluator, so
   the slow-query log names both the mode asked for and the one that
   ran. *)
let observe_query ~mode ~text ?(cache_hit = ref false)
    ?(fallback : string option ref = ref None) f =
  Registry.incr
    (match mode with
    | Planned -> m_queries_planned
    | Reference -> m_queries_reference);
  let slow = Slowlog.armed () in
  if slow then Trace.begin_collect ();
  let t0 = Trace.now_us () in
  let result, db_hits =
    match Graph.own_db_hits (fun () -> Trace.with_span "query" f) with
    | r -> r
    | exception e ->
      if slow then ignore (Trace.end_collect ());
      Registry.incr m_query_errors;
      raise e
  in
  let elapsed_us = Trace.now_us () - t0 in
  Registry.observe_us m_query_latency elapsed_us;
  let spans = if slow then Trace.end_collect () else [] in
  let rows =
    match result with
    | Ok outcome -> Table.row_count outcome.table
    | Error _ -> 0
  in
  (match result with
  | Ok _ -> Registry.add m_rows_produced rows
  | Error _ -> Registry.incr m_query_errors);
  (* db hits are counted only while a profiled run has the counter on,
     and per thread: [db_hits] is this query's own, 0 for an ordinary
     run unless a PROFILE elsewhere has counting on. *)
  let trace = Trace.current_trace_id () in
  if Qstats.enabled () then
    Qstats.observe ~text ~elapsed_us ~rows ~db_hits ~cache_hit:!cache_hit
      ~error:(Result.is_error result) ~trace;
  if slow then begin
    let mode_str =
      match !fallback with
      | Some _ -> mode_name mode ^ "+reference-fallback"
      | None -> mode_name mode
    in
    Slowlog.note ~trace_id:trace
      ~fingerprint:(Qstats.fingerprint_hash text)
      ~conn:(Slowlog.current_conn ())
      ~query:text ~mode:mode_str ~elapsed_us ~rows ~spans ()
  end;
  result

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

(* The executor entry point for read segments: sequential by default,
   morsel-parallel over the domain pool when the session's config asks
   for more than one worker.  Only full-table runs are routed — PROFILE
   and [stream] keep the sequential executor, whose per-pull
   instrumentation and laziness do not decompose. *)
let exec_run cfg g ~fields plan table =
  let workers = cfg.Config.parallel in
  if workers > 1 then
    Cypher_planner.Par_exec.run
      { Cypher_planner.Par_exec.workers;
        run_tasks = (fun n f -> Domain_pool.run ~workers n f);
      }
      cfg g ~fields plan table
  else Exec.run cfg g ~fields plan table

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
    | Read { Build.plan; fields } :: rest ->
      let table =
        Trace.with_span "execute" (fun () -> exec_run cfg g ~fields plan table)
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
let classify text =
  match statement text with
  | Ok (Ddl _) -> Update
  | Ok (Query ast) -> classify_ast ast
  | Ok (Explain _ | Profile _) | Error _ -> Read_only

(* --- consumers of the prepared form ------------------------------------ *)

let reference config g ast =
  Trace.with_span "execute" (fun () ->
      let state = Clauses.run_query config g ast in
      { graph = state.Clauses.graph; table = state.Clauses.table })

(* Whether a query runs planned: the planner compiles only Planned-mode
   queries under the default morphism. *)
let plans config mode =
  mode = Planned && config.Config.morphism = Config.Edge_isomorphism

(* Runs a prepared query.  An unplanned one (a planner limitation such
   as ORDER BY on a non-projected variable under DISTINCT) runs on the
   reference evaluator rather than failing — but never silently: the downgrade is counted, traced with its
   reason, and reported through [fallback] to the caller's observation
   wrapper (see {!observe_query}). *)
let run_prepared ~fallback config g ast = function
  | Ok tree -> run_tree config g tree
  | Error reason ->
    Registry.incr m_reference_fallback;
    fallback := Some reason;
    Trace.note ~attrs:[ ("reason", reason) ] "reference_fallback" 0;
    reference config g ast

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
  | Ok (Single { steps = [ Read { Build.plan; fields } ]; _ }) ->
    let stats = stats_of g in
    catching (fun () ->
        let table, actual =
          Trace.with_span "execute" (fun () ->
              Exec.run_profiled config g ~fields plan Table.unit)
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

(* Executes a dispatched statement: the shared body of the uncached and
   the cached path, which differ only in where [prepare] finds the
   prepared form. *)
let run_statement ~fallback ~prepare config mode g = function
  | Ddl (action, label, key) ->
    let g =
      match action with
      | `Create -> Graph.create_index g ~label ~key
      | `Drop -> Graph.drop_index g ~label ~key
    in
    Ok { graph = g; table = Table.empty ~fields:[] }
  | Explain q ->
    Result.map
      (fun p -> { graph = g; table = plan_table p })
      (catching (fun () -> render_explain g (prepare q)))
  | Profile q ->
    Result.map
      (fun p -> { graph = g; table = plan_table p })
      (render_profile config g (prepare q))
  | Query ast ->
    catching (fun () ->
        if plans config mode then
          run_prepared ~fallback config g ast (prepare ast)
        else reference config g ast)

let parse_statement text = Trace.with_span "parse" (fun () -> statement text)

(* Unobserved evaluation: the shared body of every public entry point.
   EXPLAIN/PROFILE prefixes and index DDL are handled here, so every
   caller — the server included — can ask for plans. *)
let query_raw ~fallback config mode g text =
  Result.bind (parse_statement text)
    (run_statement ~fallback ~prepare:(prepare g) config mode g)

let query ?(config = Config.default) ?(mode = Planned) g text =
  let fallback = ref None in
  observe_query ~mode ~text ~fallback (fun () ->
      query_raw ~fallback config mode g text)

let run_exn ?config ?mode g text =
  match query ?config ?mode g text with
  | Ok outcome -> outcome
  | Error e -> failwith (error_message e)

let run ?config ?mode g text = (run_exn ?config ?mode g text).table

let stream ?(config = Config.default) g text =
  Result.bind (check_query text) (fun ast ->
      match prepare g ast with
      | Ok (Single { steps = [ Read { Build.plan; _ } ]; _ }) ->
        Ok (Exec.rows config g plan (Seq.return Cypher_table.Record.empty))
      | Ok _ ->
        Error (Unsupported "stream: only read-only single queries can be streamed")
      | Error reason -> Error (Unsupported reason))

(* Splits a script on top-level semicolons (string literals and comments
   are respected). *)
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

(* A cache entry carries the dispatched statement — parsed and
   scope-checked, valid against any graph — and its prepared form tagged
   with the version of the graph whose statistics drove the compilation.
   A version mismatch keeps the statement but prepares it again, so
   updates invalidate cardinality estimates without paying for parsing
   again. *)
type cache_entry = {
  ce_stmt : statement;
  mutable ce_prepared : (int * prepared) option;
}

type plan_cache = {
  entries : cache_entry Plan_cache.t;
  (* statement classification memoised per query text; bounded, guarded
     by [classes_m] because the server classifies on connection threads *)
  classes : (string, stmt_class) Hashtbl.t;
  classes_m : Mutex.t;
  mutable replans : int;
}

type cache_stats = {
  cache_hits : int;
  cache_misses : int;
  cache_replans : int;
  cache_evictions : int;
}

let create_plan_cache () =
  {
    entries = Plan_cache.create ();
    classes = Hashtbl.create 64;
    classes_m = Mutex.create ();
    replans = 0;
  }

let max_class_cache = 1024

let classify_cached ~cache text =
  Mutex.lock cache.classes_m;
  let hit = Hashtbl.find_opt cache.classes text in
  Mutex.unlock cache.classes_m;
  match hit with
  | Some c -> c
  | None ->
    let c = classify text in
    Mutex.lock cache.classes_m;
    if Hashtbl.length cache.classes >= max_class_cache then
      Hashtbl.reset cache.classes;
    Hashtbl.replace cache.classes text c;
    Mutex.unlock cache.classes_m;
    c

let cache_stats c =
  {
    cache_hits = Plan_cache.hits c.entries;
    cache_misses = Plan_cache.misses c.entries;
    cache_replans = c.replans;
    cache_evictions = Plan_cache.evictions c.entries;
  }

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
  let cache_hit = ref false in
  let fallback = ref None in
  observe_query ~mode ~text ~cache_hit ~fallback @@ fun () ->
  if not (plans config mode) then query_raw ~fallback config mode g text
  else
    let entry =
      match Plan_cache.find cache.entries text with
      | Some entry ->
        cache_hit := true;
        Ok entry
      | None ->
        Result.map
          (fun stmt ->
            let entry = { ce_stmt = stmt; ce_prepared = None } in
            Plan_cache.add cache.entries text entry;
            entry)
          (parse_statement text)
    in
    Result.bind entry (fun entry ->
        run_statement ~fallback ~prepare:(cached_prepare cache g entry)
          config mode g entry.ce_stmt)

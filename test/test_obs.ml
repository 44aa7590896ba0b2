(* The observability layer: registry correctness under concurrent
   writers, arbitrary quantiles with open-bucket saturation reporting,
   db-hit accounting distinguishing known plans, the slow-query log's
   threshold, and span nesting in the JSONL trace sink. *)

open Helpers
module Registry = Cypher_obs.Registry
module Trace = Cypher_obs.Trace
module Slowlog = Cypher_obs.Slowlog
module Query_record = Cypher_obs.Query_record
module Graph = Cypher_graph.Graph
module Stats = Cypher_graph.Stats
module Build = Cypher_planner.Build
module Exec = Cypher_planner.Exec
module Plan = Cypher_planner.Plan
module Engine = Cypher_engine.Engine
module Value = Cypher_values.Value

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- registry --------------------------------------------------------- *)

let registry_concurrency () =
  let c = Registry.counter "test_obs_counter_total" in
  let g = Registry.gauge "test_obs_gauge" in
  let h = Registry.histogram "test_obs_latency" in
  let before = Registry.value c in
  let h_before = (Registry.hist_snapshot h).Registry.count in
  let threads = 8 and per = 5_000 in
  let ts =
    List.init threads (fun i ->
        Thread.create
          (fun () ->
            for j = 1 to per do
              Registry.incr c;
              Registry.gauge_incr g;
              Registry.gauge_decr g;
              Registry.observe_us h (((i * j) mod 1000) + 1)
            done)
          ())
  in
  List.iter Thread.join ts;
  Alcotest.(check int) "counter saw every increment"
    (before + (threads * per))
    (Registry.value c);
  Alcotest.(check int) "gauge settled back to zero" 0 (Registry.gauge_value g);
  Alcotest.(check int) "histogram saw every observation" (h_before + (threads * per))
    (Registry.hist_snapshot h).Registry.count;
  (* the registered names surface in both expositions *)
  Alcotest.(check bool) "prometheus exposition carries the series" true
    (contains (Registry.expose ()) "test_obs_counter_total");
  Alcotest.(check bool) "json exposition carries the series" true
    (contains (Registry.expose_json ()) "test_obs_latency_p99_us")

let quantiles_and_saturation () =
  let h = Registry.histogram "test_obs_saturation" in
  for _ = 1 to 99 do
    Registry.observe_us h 100
  done;
  (* 200 s: far beyond the last bounded bucket (~67 s) *)
  Registry.observe_us h 200_000_000;
  let q50 = Registry.quantile h 0.5 in
  Alcotest.(check bool) "p50 is not saturated" false q50.Registry.saturated;
  Alcotest.(check bool) "p50 within its bucket's resolution" true
    (q50.Registry.q_us >= 100 && q50.Registry.q_us <= 256);
  let q100 = Registry.quantile h 1.0 in
  Alcotest.(check bool) "the open bucket reports saturation" true
    q100.Registry.saturated;
  Alcotest.(check int) "…and the exact maximum, not a bucket bound"
    200_000_000 q100.Registry.q_us;
  let qs =
    List.map
      (fun p -> (Registry.quantile h p).Registry.q_us)
      [ 0.0; 0.1; 0.5; 0.9; 0.99; 1.0 ]
  in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "quantiles are monotone" true (mono qs)

let registry_kind_clash () =
  ignore (Registry.counter "test_obs_kind_clash");
  (match Registry.gauge "test_obs_kind_clash" with
  | _ -> Alcotest.fail "name rebound to a different metric kind"
  | exception Invalid_argument _ -> ());
  (* idempotent re-registration hands back the same series *)
  let a = Registry.counter "test_obs_kind_clash" in
  Registry.incr a;
  let b = Registry.counter "test_obs_kind_clash" in
  Registry.incr b;
  Alcotest.(check int) "same underlying counter" 2 (Registry.value a)

(* --- db hits ---------------------------------------------------------- *)

let cfg = Cypher_semantics.Config.default

(* Total db hits of the plan the optimiser picks for [q] on [g]. *)
let total_hits g q =
  match Cypher_parser.Parser.parse_query_exn q with
  | Cypher_ast.Ast.Q_single { sq_clauses; sq_return } ->
    let { Build.plan; fields; prog } =
      Build.compile_clauses ~stats:(Stats.collect g) ~visible:[] sq_clauses
        sq_return
    in
    let _table, actual =
      Exec.run_profiled cfg g ~fields prog Cypher_table.Table.unit
    in
    (actual plan).Exec.prof_hits
  | _ -> Alcotest.fail "expected a single query"

let db_hits_indexed_vs_scan () =
  let g = ref Graph.empty in
  for i = 1 to 200 do
    let g', _ =
      Graph.add_node ~labels:[ "P" ] ~props:[ ("k", Value.Int i) ] !g
    in
    g := g'
  done;
  let q = "MATCH (n:P {k: 137}) RETURN n" in
  let scan_hits = total_hits !g q in
  let indexed = Graph.create_index !g ~label:"P" ~key:"k" in
  let seek_hits = total_hits indexed q in
  Alcotest.(check bool)
    (Printf.sprintf "index seek (%d hits) beats label scan (%d hits)"
       seek_hits scan_hits)
    true
    (seek_hits < scan_hits);
  Alcotest.(check bool) "the seek still touches the store" true (seek_hits > 0);
  (* counting is a profiling device: off outside run_profiled *)
  Alcotest.(check bool) "counting disabled after a profiled run" false
    (Graph.db_hit_counting_on ())

(* The cost model of index-free adjacency: an operator that walks
   adjacency pays one hit per list it reads, and nothing per neighbour,
   because each entry is the relationship record itself.  On a fan of
   [a] -> five middle nodes -> [d], a second lookup per neighbour would
   add at least five hits to every pinned figure below. *)
let db_hits_adjacency_not_neighbours () =
  let g = ref Graph.empty in
  let node name =
    let g', n =
      Graph.add_node ~labels:[ "P" ] ~props:[ ("name", Value.String name) ] !g
    in
    g := g';
    n
  in
  let a = node "a" and d = node "d" in
  for i = 1 to 5 do
    let m = node (Printf.sprintf "m%d" i) in
    g := fst (Graph.add_rel ~src:a ~tgt:m ~rel_type:"F" !g);
    g := fst (Graph.add_rel ~src:m ~tgt:d ~rel_type:"F" !g)
  done;
  let g = !g in
  (* the first operator satisfying [is_op] on the plan's input chain,
     its self hits, and the rows its input produced *)
  let self_hits q is_op =
    match Cypher_parser.Parser.parse_query_exn q with
    | Cypher_ast.Ast.Q_single { sq_clauses; sq_return } -> (
      let { Build.plan; fields; prog } =
        Build.compile_clauses ~stats:(Stats.collect g) ~visible:[] sq_clauses
          sq_return
      in
      let _table, actual =
        Exec.run_profiled cfg g ~fields prog Cypher_table.Table.unit
      in
      let rec find p =
        if is_op p then Some p else Option.bind (Plan.input_of p) find
      in
      match find plan with
      | None -> Alcotest.failf "%S: operator not in the plan" q
      | Some op ->
        let rows_in =
          Option.fold ~none:1
            ~some:(fun i -> (actual i).Exec.prof_rows)
            (Plan.input_of op)
        in
        (op, (Exec.self_profile actual op).Exec.prof_hits, rows_in))
    | _ -> Alcotest.fail "expected a single query"
  in
  let is_expand = function Plan.Expand _ -> true | _ -> false in
  List.iter
    (fun q ->
      let op, hits, rows_in = self_hits q is_expand in
      let lists =
        match op with Plan.Expand { dir = Plan.Both; _ } -> 2 | _ -> 1
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: Expand hits = %d input rows x %d lists" q rows_in
           lists)
        (rows_in * lists) hits)
    [
      "MATCH (:P {name:'a'})-[:F]->(m) RETURN m";
      "MATCH (:P {name:'d'})<-[:F]-(m) RETURN m";
      "MATCH (:P {name:'a'})-[:F]-(m) RETURN m";
    ];
  (* one expansion from each end meets in the middle: two list reads
     directed, four undirected *)
  let is_shortest = function Plan.Shortest_path _ -> true | _ -> false in
  List.iter
    (fun (arrow, expected) ->
      let q =
        Printf.sprintf
          "MATCH (a:P {name:'a'}), (d:P {name:'d'}) MATCH p = \
           shortestPath((a)-[:F*]%s(d)) RETURN length(p)"
          arrow
      in
      let _, hits, _ = self_hits q is_shortest in
      Alcotest.(check int) q expected hits)
    [ ("->", 2); ("-", 4) ]

(* A PROFILE counts only its own run's hits: while a second domain loops
   the same query, profiled and unprofiled, every operator of a profiled
   run on this domain reports exactly the hits of an isolated run.  A
   process-global counter would add the other domain's hits; a counting
   switch set and restored around each run would let the other domain's
   finishing PROFILE switch counting off mid-run. *)
let db_hits_profile_isolated () =
  let g = ref Graph.empty in
  let prev = ref None in
  for i = 1 to 1500 do
    let g', n =
      Graph.add_node ~labels:[ "P" ] ~props:[ ("k", Value.Int i) ] !g
    in
    g := g';
    Option.iter
      (fun p -> g := fst (Graph.add_rel ~src:p ~tgt:n ~rel_type:"F" !g))
      !prev;
    prev := Some n
  done;
  let g = !g in
  let q = "MATCH (a:P)-[:F]->(b) WHERE b.k % 3 = 0 RETURN count(*) AS c" in
  let plan, fields, prog =
    match Cypher_parser.Parser.parse_query_exn q with
    | Cypher_ast.Ast.Q_single { sq_clauses; sq_return } ->
      let { Build.plan; fields; prog } =
        Build.compile_clauses ~stats:(Stats.collect g) ~visible:[] sq_clauses
          sq_return
      in
      (plan, fields, prog)
    | _ -> Alcotest.fail "expected a single query"
  in
  let rec chain p = p :: Option.fold ~none:[] ~some:chain (Plan.input_of p) in
  let per_operator () =
    let _table, actual =
      Exec.run_profiled cfg g ~fields prog Cypher_table.Table.unit
    in
    List.map (fun op -> (actual op).Exec.prof_hits) (chain plan)
  in
  let isolated = per_operator () in
  Alcotest.(check bool) "the query touches the store" true
    (List.exists (fun h -> h > 0) isolated);
  let stop = Atomic.make false and rounds = Atomic.make 0 in
  let other =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          ignore (per_operator ());
          ignore (Exec.run cfg g ~fields prog Cypher_table.Table.unit);
          Atomic.incr rounds
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join other)
    (fun () ->
      (* run until the other domain has looped a few times meanwhile *)
      let runs = ref 0 in
      while !runs < 10 || Atomic.get rounds < 3 do
        incr runs;
        Alcotest.(check (list int))
          (Printf.sprintf "run %d: per-operator hits equal the isolated run"
             !runs)
          isolated (per_operator ())
      done);
  Alcotest.(check bool) "counting off once every PROFILE is done" false
    (Graph.db_hit_counting_on ())

(* --- slow-query log --------------------------------------------------- *)

let slow_query_log_threshold () =
  let lines = ref [] in
  Slowlog.set_sink (Some (fun l -> lines := l :: !lines));
  Fun.protect
    ~finally:(fun () ->
      Slowlog.set_sink None;
      Slowlog.set_threshold_ms None)
    (fun () ->
      Slowlog.set_threshold_ms (Some 1000.);
      let record =
        {
          Query_record.text = "just_under";
          fingerprint = Query_record.no_fingerprint;
          mode = "planned";
          fallback = None;
          elapsed_us = 999_999;
          rows = 0;
          db_hits = 0;
          cache_hit = false;
          error = false;
          trace = 0;
          conn = "";
          spans = [];
        }
      in
      Slowlog.note record;
      Alcotest.(check int) "below the threshold: silent" 0 (List.length !lines);
      Slowlog.note
        {
          record with
          text = "right_at";
          elapsed_us = 1_000_000;
          rows = 3;
          spans = [ ("execute", 42) ];
        };
      Alcotest.(check int) "at the threshold: logged" 1 (List.length !lines);
      let line = List.hd !lines in
      Alcotest.(check bool) "line carries the query text" true
        (contains line "right_at");
      Alcotest.(check bool) "line carries the span breakdown" true
        (contains line "\"execute\":42");
      (* end to end: an armed engine reports a real query with its
         per-phase spans *)
      Slowlog.set_threshold_ms (Some 0.);
      (match Engine.query Graph.empty "RETURN 1 AS one" with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Engine.error_message e));
      Alcotest.(check bool) "armed engine logs the query" true
        (List.length !lines >= 2);
      let last = List.hd !lines in
      Alcotest.(check bool) "engine line names its parse span" true
        (contains last "parse");
      (* disarmed again: nothing further *)
      Slowlog.set_threshold_ms None;
      let n = List.length !lines in
      (match Engine.query Graph.empty "RETURN 2 AS two" with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Engine.error_message e));
      Alcotest.(check int) "disarmed engine is silent" n (List.length !lines))

(* A planner-refused query (two shortestPath patterns in one MATCH) runs
   on the reference evaluator: its slow line names both modes, and the
   fallback counter moves exactly once. *)
let slow_line_names_reference_fallback () =
  let fallbacks = Registry.counter "cypher_engine_reference_fallback_total" in
  let q =
    "MATCH p = shortestPath((a:P {name:'a'})-[:F*]->(d:P {name:'d'})), q = \
     shortestPath((d)-[:G*]->(a)) RETURN length(p) + length(q) AS l"
  in
  let lines = ref [] in
  Slowlog.set_sink (Some (fun l -> lines := l :: !lines));
  Fun.protect
    ~finally:(fun () ->
      Slowlog.set_sink None;
      Slowlog.set_threshold_ms None)
    (fun () ->
      Slowlog.set_threshold_ms (Some 0.);
      let before = Registry.value fallbacks in
      (match Engine.query Graph.empty q with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Engine.error_message e));
      Alcotest.(check int) "fallback counted exactly once" (before + 1)
        (Registry.value fallbacks);
      match !lines with
      | [ line ] ->
        Alcotest.(check bool) "slow line names the fallback" true
          (contains line "\"mode\":\"planned+reference-fallback\"")
      | l -> Alcotest.failf "expected one slow line, got %d" (List.length l))

(* --- trace spans ------------------------------------------------------ *)

let span_nesting_wellformed () =
  let lines = ref [] in
  Trace.set_sink (Some (fun l -> lines := l :: !lines));
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      Trace.with_span "outer" (fun () ->
          Trace.with_span "inner_a" (fun () -> ());
          Trace.with_span "inner_b" (fun () -> ()));
      match List.rev !lines with
      | [ a; b; outer ] ->
        List.iter
          (fun l ->
            Alcotest.(check bool) "each event is one JSON object" true
              (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
          [ a; b; outer ];
        (* children close (and emit) before their parent, one level down *)
        Alcotest.(check bool) "first child" true
          (contains a "\"name\":\"inner_a\"" && contains a "\"depth\":1");
        Alcotest.(check bool) "second child" true
          (contains b "\"name\":\"inner_b\"" && contains b "\"depth\":1");
        Alcotest.(check bool) "parent closes last at depth 0" true
          (contains outer "\"name\":\"outer\"" && contains outer "\"depth\":0")
      | ls -> Alcotest.failf "expected 3 span events, got %d" (List.length ls));
  (* an engine query nests parse/plan/execute inside its query span *)
  lines := [];
  Trace.set_sink (Some (fun l -> lines := l :: !lines));
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      ignore (Engine.run Graph.empty "RETURN 1 AS one");
      Alcotest.(check bool) "parse emitted at depth 1" true
        (List.exists
           (fun l -> contains l "\"name\":\"parse\"" && contains l "\"depth\":1")
           !lines);
      match !lines with
      | last :: _ ->
        Alcotest.(check bool) "query span closes last at depth 0" true
          (contains last "\"name\":\"query\"" && contains last "\"depth\":0")
      | [] -> Alcotest.fail "no spans emitted")

let span_overhead_off_path () =
  (* with no sink and no collector, with_span must still return the
     thunk's value and propagate exceptions *)
  Alcotest.(check int) "value through" 7 (Trace.with_span "s" (fun () -> 7));
  match Trace.with_span "s" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure m -> Alcotest.(check string) "exception through" "boom" m

(* A query's db hits are its own: a nested scope's hits are reported by
   that scope and left out of the enclosing one, and the thread's total
   is back where it was once the outermost scope ends. *)
let db_hits_own_scope () =
  let g, n = Graph.add_node ~labels:[ "P" ] Graph.empty in
  let fetch () = ignore (Graph.node_data g n) in
  let before = Graph.db_hits () in
  let ((), inner), outer =
    Graph.with_db_hit_counting (fun () ->
        Graph.own_db_hits (fun () ->
            fetch ();
            let r = Graph.own_db_hits (fun () -> fetch (); fetch ()) in
            fetch ();
            r))
  in
  Alcotest.(check int) "the nested scope counts its own two fetches" 2 inner;
  Alcotest.(check int) "the enclosing scope counts only its own two" 2 outer;
  Alcotest.(check int) "the thread's total is restored" before
    (Graph.db_hits ())

(* Threads past the array's 8192 slots keep their values in the overflow
   table; each thread must still read only its own value, the default
   until it sets one. *)
let per_thread_values () =
  let module P = Cypher_obs.Per_thread in
  let v = P.make 0 in
  let on_thread f =
    let r = ref None in
    Thread.join (Thread.create (fun () -> r := Some (f ())) ());
    Option.get !r
  in
  let own () =
    let id = Thread.id (Thread.self ()) in
    let fresh = P.get v in
    P.set v id;
    (id, fresh, P.get v)
  in
  let check (id, fresh, mine) =
    Alcotest.(check int) (Printf.sprintf "thread %d starts at the default" id)
      0 fresh;
    Alcotest.(check int) (Printf.sprintf "thread %d reads its own value" id)
      id mine
  in
  check (on_thread own);
  let spawned_past_array () =
    let th = Thread.create ignore () in
    Thread.join th;
    Thread.id th >= 8192
  in
  while not (spawned_past_array ()) do () done;
  on_thread (fun () ->
      let (id, _, _) as a = own () in
      check a;
      check (on_thread own);
      Alcotest.(check int) "a neighbour's value leaves this one alone" id
        (P.get v);
      P.set v 0;
      Alcotest.(check int) "a reset reads the default" 0 (P.get v))

(* PROFILE's totals — rows and db hits of the whole plan — for the
   standing adhoc scan and hop2 shapes on a fixed graph.  Pinned at the
   values the record-per-row executor gave, they show that slotted rows
   and compiled expressions read the store exactly as before. *)
let profile_totals_pinned () =
  let g = Cypher_gen.Generate.social ~seed:11 ~people:2000 ~avg_friends:6 in
  let first q =
    match Cypher_table.Table.rows (Engine.run g q) with
    | row :: _ -> (
      match Cypher_table.Record.find row "v" with
      | Some (Value.String s) -> s
      | _ -> Alcotest.failf "%s: expected a string" q)
    | [] -> Alcotest.failf "%s: no rows" q
  in
  let name = first "MATCH (p:Person) RETURN p.name AS v ORDER BY v LIMIT 1" in
  let city = first "MATCH (p:Person) RETURN p.city AS v ORDER BY v LIMIT 1" in
  let totals q =
    match Engine.profile g q with
    | Error e -> Alcotest.fail (Engine.error_message e)
    | Ok text -> (
      match
        List.find_opt
          (String.starts_with ~prefix:"total: ")
          (String.split_on_char '\n' text)
      with
      | Some line -> Scanf.sscanf line "total: %d rows, %d db-hits" (fun r h -> (r, h))
      | None -> Alcotest.failf "no totals in:\n%s" text)
  in
  let check what q expected =
    Alcotest.(check (pair int int)) (what ^ ": rows, db hits") expected (totals q)
  in
  check "scan"
    (Printf.sprintf
       "MATCH (p:Person) WHERE p.city = '%s' AND p.name ENDS WITH '3' RETURN \
        count(*) AS n"
       city)
    (1, 6001);
  check "hop2"
    (Printf.sprintf
       "MATCH (p:Person {name: '%s'})-[:FRIEND]-()-[:FRIEND]-(q) RETURN \
        count(DISTINCT q) AS n"
       name)
    (1, 4011)

let suite =
  [
    tc "registry: concurrent writers lose no updates" registry_concurrency;
    tc "histogram: arbitrary quantiles, saturation on the open bucket"
      quantiles_and_saturation;
    tc "registry: kind clashes rejected, re-registration idempotent"
      registry_kind_clash;
    tc "db hits: indexed lookup beats label scan" db_hits_indexed_vs_scan;
    tc "db hits: one per adjacency list, none per neighbour"
      db_hits_adjacency_not_neighbours;
    tc "db hits: a PROFILE counts only its own run" db_hits_profile_isolated;
    tc "db hits: a query counts its own, not nested queries'"
      db_hits_own_scope;
    tc "db hits: PROFILE totals of the adhoc scan and hop2 shapes"
      profile_totals_pinned;
    tc "per-thread values stay per thread past the slot array"
      per_thread_values;
    tc "slow-query log fires at or above its threshold only"
      slow_query_log_threshold;
    tc "slow line and counter name a reference fallback"
      slow_line_names_reference_fallback;
    tc "trace spans nest well-formed in the JSONL sink"
      span_nesting_wellformed;
    tc "spans are transparent with no sink attached" span_overhead_off_path;
  ]

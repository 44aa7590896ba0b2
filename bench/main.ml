(* Benchmark harness.

   Two kinds of content, per the experiment index in DESIGN.md:

   - one Bechamel measurement per paper table/figure (group
     "paper-tables": E2..E12 — the time to regenerate each of the
     paper's worked-example tables on its graph), plus the regenerated
     rows themselves (printed before the measurements, so the harness
     both reproduces and times every table);

   - the B1-B7 performance experiments: Expand locality, variable-length
     growth, morphism semantics, engine modes, aggregation, parsing, and
     the fixed two-disjoint-paths pattern of the Section 4.2 complexity
     discussion.

   The paper itself reports no absolute performance numbers (its
   evaluation is the formal semantics); the B-series documents the
   performance-relevant *claims* (Section 2 Expand locality, Section 4.2
   complexity) on synthetic workloads.  Shapes, not absolute numbers, are
   the reproduction target. *)

open Bechamel
open Toolkit
open Cypher_gen
module Engine = Cypher_engine.Engine
module Graph = Cypher_graph.Graph
module Table = Cypher_table.Table
module Stats = Cypher_graph.Stats
module Config = Cypher_semantics.Config

let run_planned g q = Engine.run ~mode:Engine.Planned g q
let run_reference g q = Engine.run ~mode:Engine.Reference g q

(* Planned execution with the baseline Expand that scans the whole
   relationship set instead of using adjacency (experiment B1). *)
let run_scan_expand g q =
  match Cypher_parser.Parser.parse_query_exn q with
  | Cypher_ast.Ast.Q_single { sq_clauses; sq_return } ->
    let stats = Stats.collect g in
    let { Cypher_planner.Build.prog; fields; _ } =
      Cypher_planner.Build.compile_clauses ~stats ~scan_rels:true ~visible:[]
        sq_clauses sq_return
    in
    Cypher_planner.Exec.run Config.default g ~fields prog Table.unit
  | _ -> failwith "unsupported"

let row_count t = Table.row_count t

(* ------------------------------------------------------------------ *)
(* Measurement plumbing                                                *)
(* ------------------------------------------------------------------ *)

(* Runs one Bechamel group, prints the estimates, and returns them as
   [(test_name, ns_per_run)] so callers (the JSON emitter) can reuse the
   numbers. *)
let benchmark_group_collect name tests =
  let test = Test.make_grouped ~name tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  Printf.printf "\n## %s\n" name;
  List.filter_map
    (fun (test_name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] when Float.is_finite ns ->
        let pretty =
          if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
          else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
          else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
          else Printf.sprintf "%8.0f ns" ns
        in
        Printf.printf "  %-58s %s/run\n" test_name pretty;
        Some (test_name, ns)
      | _ ->
        Printf.printf "  %-58s (no estimate)\n" test_name;
        None)
    rows

let benchmark_group name tests = ignore (benchmark_group_collect name tests)

let t name f = Test.make ~name (Staged.stage f)

(* ------------------------------------------------------------------ *)
(* Paper tables: regenerate and time each one                           *)
(* ------------------------------------------------------------------ *)

let academic = Paper_graphs.academic ()
let teachers = Paper_graphs.teachers ()
let loop_graph = let g, _, _ = Paper_graphs.self_loop () in g

let paper_tables =
  [
    ( "E2/fig2a", academic,
      "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) \
       RETURN r, s" );
    ( "E3/fig2b", academic,
      "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) \
       WITH r, count(s) AS studentsSupervised RETURN r, studentsSupervised" );
    ( "E4/line4", academic,
      "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) \
       WITH r, count(s) AS studentsSupervised \
       MATCH (r)-[:AUTHORS]->(p1:Publication) RETURN r, studentsSupervised, p1"
    );
    ( "E5/line5", academic,
      "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) \
       WITH r, count(s) AS studentsSupervised \
       MATCH (r)-[:AUTHORS]->(p1:Publication) \
       OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication) \
       RETURN r, studentsSupervised, p1, p2" );
    ( "E6/final", academic,
      "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) \
       WITH r, count(s) AS studentsSupervised \
       MATCH (r)-[:AUTHORS]->(p1:Publication) \
       OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication) \
       RETURN r.name, studentsSupervised, count(DISTINCT p2) AS citedCount" );
    ("E8/ex4.3", teachers, "MATCH (x:Teacher)-[:KNOWS*2]->(y) RETURN x, y");
    ( "E9/ex4.4", teachers,
      "MATCH (x:Teacher)-[:KNOWS*1..2]->(z)-[:KNOWS*1..2]->(y:Teacher) \
       RETURN x, z, y" );
    ( "E10/ex4.5", teachers,
      "MATCH (x:Teacher)-[:KNOWS*1..2]->()-[:KNOWS*1..2]->(y:Teacher) \
       RETURN x, y" );
    ("E11/ex4.6", teachers, "MATCH (x)-[:KNOWS*]->(y) RETURN x, y");
    ("E12/loop", loop_graph, "MATCH (x)-[*0..]->(x) RETURN x");
  ]

let print_paper_tables () =
  Printf.printf "# Paper tables regenerated (experiment ids from DESIGN.md)\n";
  List.iter
    (fun (name, g, q) ->
      Printf.printf "\n-- %s --\n%s\n" name q;
      Format.printf "%a@." Table.pp (run_planned g q))
    paper_tables

let paper_table_tests =
  List.map (fun (name, g, q) -> t name (fun () -> run_planned g q)) paper_tables

(* ------------------------------------------------------------------ *)
(* B1: Expand locality vs relationship-scan join                        *)
(* ------------------------------------------------------------------ *)

let b1 () =
  let sizes = [ 200; 800 ] in
  let tests =
    List.concat_map
      (fun n ->
        let g = Generate.chain ~n ~rel_type:"NEXT" in
        let q =
          "MATCH (a)-[:NEXT]->(b)-[:NEXT]->(c)-[:NEXT]->(d) RETURN count(*) \
           AS c"
        in
        [
          t (Printf.sprintf "expand-adjacency/n=%d" n) (fun () -> run_planned g q);
          t (Printf.sprintf "expand-scan-all-rels/n=%d" n) (fun () ->
              run_scan_expand g q);
        ])
      sizes
  in
  benchmark_group
    "B1 Expand locality (Section 2): adjacency vs whole-relationship scan"
    tests

(* ------------------------------------------------------------------ *)
(* B2: variable-length growth                                          *)
(* ------------------------------------------------------------------ *)

let b2 () =
  let chain = Generate.chain ~n:256 ~rel_type:"T" in
  let clique = Generate.clique ~n:7 ~rel_type:"T" in
  let tests =
    List.concat_map
      (fun k ->
        let q g name =
          t
            (Printf.sprintf "%s/k=%d" name k)
            (fun () ->
              run_planned g
                (Printf.sprintf
                   "MATCH (a {idx: 1})-[:T*1..%d]->(b) RETURN count(*) AS c" k))
        in
        [ q chain "chain-n256"; q clique "clique-n7" ])
      [ 2; 4; 6 ]
  in
  benchmark_group
    "B2 variable-length growth (Section 4.2): chains vs cliques" tests

(* ------------------------------------------------------------------ *)
(* B3: morphism semantics                                              *)
(* ------------------------------------------------------------------ *)

let b3 () =
  (* On a 4-cycle with *1..8, the three semantics disagree: edge
     isomorphism stops after one trip around (lengths 1-4), node
     isomorphism additionally rejects the closing step (lengths 1-3), and
     homomorphism keeps circling until the cap. *)
  let g = Generate.cycle ~n:4 ~rel_type:"T" in
  let q = "MATCH (a)-[:T*1..8]->(b) RETURN count(*) AS c" in
  let with_morphism m cap =
    Config.{ default with morphism = m; var_length_cap = cap }
  in
  let count config =
    match Table.rows (Engine.run ~config ~mode:Engine.Reference g q) with
    | [ row ] -> (
      match Cypher_table.Record.find row "c" with
      | Some (Cypher_values.Value.Int n) -> n
      | _ -> -1)
    | _ -> -1
  in
  Printf.printf
    "\n(B3 match counts on a 4-cycle, *1..8: edge-iso=%d node-iso=%d \
     homomorphism(cap 8)=%d)\n"
    (count (with_morphism Config.Edge_isomorphism None))
    (count (with_morphism Config.Node_isomorphism None))
    (count (with_morphism Config.Homomorphism (Some 8)));
  let tests =
    [
      t "edge-isomorphism" (fun () ->
          Engine.run
            ~config:(with_morphism Config.Edge_isomorphism None)
            ~mode:Engine.Reference g q);
      t "node-isomorphism" (fun () ->
          Engine.run
            ~config:(with_morphism Config.Node_isomorphism None)
            ~mode:Engine.Reference g q);
      t "homomorphism-cap8" (fun () ->
          Engine.run
            ~config:(with_morphism Config.Homomorphism (Some 8))
            ~mode:Engine.Reference g q);
    ]
  in
  benchmark_group "B3 configurable morphisms (Sections 4.2 and 8)" tests

(* ------------------------------------------------------------------ *)
(* B4: reference semantics vs planned engine                           *)
(* ------------------------------------------------------------------ *)

let b4 () =
  let g = Generate.citation ~seed:11 ~papers:60 ~avg_cites:2 in
  let q =
    "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) \
     WITH r, count(s) AS sup MATCH (r)-[:AUTHORS]->(p:Publication) \
     OPTIONAL MATCH (p)<-[:CITES*]-(q:Publication) \
     RETURN r.name, sup, count(DISTINCT q) AS cited"
  in
  let tests =
    [
      t "reference-denotational" (fun () -> row_count (run_reference g q));
      t "planned-volcano" (fun () -> row_count (run_planned g q));
    ]
  in
  benchmark_group
    "B4 engine modes on the Section 3 query shape (citation graph, 60 papers)"
    tests

(* ------------------------------------------------------------------ *)
(* B5: aggregation throughput                                          *)
(* ------------------------------------------------------------------ *)

let b5 () =
  let g = Generate.social ~seed:3 ~people:400 ~avg_friends:6 in
  let tests =
    [
      t "grouped-count" (fun () ->
          run_planned g
            "MATCH (p:Person) RETURN p.city AS city, count(*) AS c");
      t "grouped-collect" (fun () ->
          run_planned g
            "MATCH (p:Person)-[:FRIEND]->(q) RETURN p.city AS city, \
             collect(q.name) AS friends");
      t "global-aggregates" (fun () ->
          run_planned g
            "MATCH (p:Person)-[f:FRIEND]->() RETURN count(*) AS c, \
             min(f.since) AS mn, max(f.since) AS mx, avg(f.since) AS a");
      t "distinct" (fun () ->
          run_planned g "MATCH (p:Person) RETURN DISTINCT p.city AS city");
    ]
  in
  benchmark_group "B5 aggregation (social graph, 400 people)" tests

(* ------------------------------------------------------------------ *)
(* B6: parser throughput                                               *)
(* ------------------------------------------------------------------ *)

let b6 () =
  let corpus =
    [
      "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) \
       WITH r, count(s) AS n RETURN r.name, n ORDER BY n DESC LIMIT 10";
      "MATCH (a)-[r:KNOWS*1..3 {since: 1985}]->(b) WHERE a.age > $min \
       RETURN a, [x IN r WHERE x.w > 1 | x.w] AS ws";
      "MERGE (a:P {k: 1}) ON CREATE SET a.c = true ON MATCH SET a.m = 1 \
       RETURN CASE WHEN a.c THEN 'new' ELSE 'old' END";
      "UNWIND range(1, 100) AS i CREATE (n:Row {v: i, sq: i * i})";
    ]
  in
  let tests =
    List.mapi
      (fun i q ->
        t (Printf.sprintf "parse-%d (%d chars)" i (String.length q)) (fun () ->
            Cypher_parser.Parser.parse_query_exn q))
      corpus
  in
  benchmark_group "B6 parser throughput" tests

(* ------------------------------------------------------------------ *)
(* B7: the fixed two-disjoint-paths pattern                            *)
(* ------------------------------------------------------------------ *)

let b7 () =
  let tests =
    List.map
      (fun rels ->
        let g =
          Generate.random_uniform ~seed:5 ~nodes:10 ~rels ~rel_types:[ "T" ]
            ~labels:[]
        in
        t
          (Printf.sprintf "two-disjoint-paths/rels=%d" rels)
          (fun () ->
            row_count
              (run_reference g
                 "MATCH (a)-[*1..4]->(m), (m)-[*1..4]->(b) \
                  RETURN count(*) AS c")))
      [ 10; 15; 20 ]
  in
  benchmark_group
    "B7 fixed pattern requiring disjoint paths (Section 4.2 complexity)" tests

(* ------------------------------------------------------------------ *)
(* B8: planner ablation — greedy pattern ordering vs textual order     *)
(* ------------------------------------------------------------------ *)

let run_with_ordering ordering g q =
  match Cypher_parser.Parser.parse_query_exn q with
  | Cypher_ast.Ast.Q_single { sq_clauses; sq_return } ->
    let stats = Stats.collect g in
    let { Cypher_planner.Build.prog; fields; _ } =
      Cypher_planner.Build.compile_clauses ~stats ~ordering ~visible:[]
        sq_clauses sq_return
    in
    Cypher_planner.Exec.run Config.default g ~fields prog Table.unit
  | _ -> failwith "unsupported"

let b8 () =
  (* one rare node with a short chain, many common nodes: compiled in
     written order the common scan drives a repeated search for the rare
     pattern; the greedy planner anchors on the rare label first *)
  let g = ref Graph.empty in
  let add_node labels =
    let g', n = Graph.add_node ~labels !g in
    g := g';
    n
  in
  let rare = add_node [ "Rare" ] in
  let mid = add_node [] in
  let g', _ = Graph.add_rel ~src:rare ~tgt:mid ~rel_type:"T" !g in
  g := g';
  for _ = 1 to 300 do
    let c = add_node [ "Common" ] in
    let g', _ = Graph.add_rel ~src:c ~tgt:mid ~rel_type:"T" !g in
    g := g'
  done;
  let g = !g in
  let q =
    "MATCH (c:Common)-[:T]->(m), (r:Rare)-[:T]->(m2) RETURN count(*) AS c"
  in
  let tests =
    [
      t "greedy-cost-based-order" (fun () -> run_with_ordering `Greedy g q);
      t "textual-order" (fun () -> run_with_ordering `Textual g q);
    ]
  in
  benchmark_group
    "B8 ablation: greedy pattern ordering (Section 2 cost-based planning)"
    tests

(* ------------------------------------------------------------------ *)
(* B9: graph algorithms                                                *)
(* ------------------------------------------------------------------ *)

let b9 () =
  let tests =
    List.concat_map
      (fun n ->
        let g =
          Generate.random_uniform ~seed:8 ~nodes:n ~rels:(4 * n)
            ~rel_types:[ "T" ] ~labels:[]
        in
        [
          t (Printf.sprintf "pagerank/n=%d" n) (fun () ->
              Cypher_algos.Algos.pagerank ~iterations:20 g);
          t (Printf.sprintf "wcc/n=%d" n) (fun () ->
              Cypher_algos.Algos.weakly_connected_components g);
          t (Printf.sprintf "triangles/n=%d" n) (fun () ->
              Cypher_algos.Algos.triangle_count g);
        ])
      [ 100; 400 ]
  in
  benchmark_group "B9 graph algorithms (paper intro: built-in algorithms)"
    tests

(* ------------------------------------------------------------------ *)
(* B10: property index seek vs label scan                              *)
(* ------------------------------------------------------------------ *)

let b10 () =
  let tests =
    List.concat_map
      (fun n ->
        let g =
          Generate.random_uniform ~seed:21 ~nodes:n ~rels:n ~rel_types:[ "T" ]
            ~labels:[ "Node" ]
        in
        let gi = Graph.create_index g ~label:"Node" ~key:"idx" in
        let q = "MATCH (a:Node {idx: 7}) RETURN count(*) AS c" in
        [
          t (Printf.sprintf "label-scan/n=%d" n) (fun () -> run_planned g q);
          t (Printf.sprintf "index-seek/n=%d" n) (fun () -> run_planned gi q);
        ])
      [ 1000; 10000 ]
  in
  benchmark_group
    "B10 property index (Section 5: indexing of node data): seek vs scan"
    tests

(* ------------------------------------------------------------------ *)
(* B11: an interactive-style query mix on the social graph             *)
(* ------------------------------------------------------------------ *)

let b11 () =
  let g = Generate.social ~seed:13 ~people:300 ~avg_friends:8 in
  let gi = Graph.create_index g ~label:"Person" ~key:"name" in
  let queries =
    [
      ( "profile-lookup",
        "MATCH (p:Person {name: 'Nils3'}) RETURN p {.name, .city} AS profile" );
      ( "friends-of-friends",
        "MATCH (p:Person {name: 'Nils3'})-[:FRIEND]-()-[:FRIEND]-(fof)          WHERE fof <> p RETURN count(DISTINCT fof) AS c" );
      ( "recent-friendships",
        "MATCH (p:Person)-[f:FRIEND]-(q) WHERE f.since > 2015          RETURN p.name AS a, q.name AS b, f.since AS since          ORDER BY since DESC LIMIT 10" );
      ( "city-histogram",
        "MATCH (p:Person) RETURN p.city AS city, count(*) AS c ORDER BY c DESC" );
      ( "triangle-close",
        "MATCH (a:Person)-[:FRIEND]-(b)-[:FRIEND]-(c)          WHERE id(a) < id(c) AND (a)-[:FRIEND]-(c)          RETURN count(*) AS triangles" );
    ]
  in
  let tests =
    List.map (fun (name, q) -> t name (fun () -> run_planned gi q)) queries
  in
  benchmark_group
    "B11 interactive-style query mix (social graph, 300 people, indexed)"
    tests

(* ------------------------------------------------------------------ *)
(* B12: the query-plan cache — repeated-query throughput               *)
(* ------------------------------------------------------------------ *)

(* Each query is measured three ways:
   - cold: the full Session.run pipeline without a cache — lex, parse,
     scope-check, plan, execute on every call;
   - hit: the same pipeline through a warmed plan cache, so each call is
     a hash lookup plus execution;
   - exec: the bare cached-plan execution floor (Engine.query_cached on
     a warmed cache), bounding what cold minus hit can ever recover.
   The cold/hit pairs are also written to BENCH_pr1.json (path
   overridable via BENCH_JSON) to start the recorded perf trajectory. *)

let b12_queries =
  [
    ( "profile-lookup",
      "MATCH (p:Person {name: 'Nils3'}) RETURN p {.name, .city} AS profile" );
    ( "friends-of-friends",
      "MATCH (p:Person {name: 'Nils3'})-[:FRIEND]-()-[:FRIEND]-(fof) WHERE \
       fof <> p RETURN count(DISTINCT fof) AS c" );
    ( "city-histogram",
      "MATCH (p:Person) RETURN p.city AS city, count(*) AS c ORDER BY c DESC" );
    ( "friend-list",
      "MATCH (p:Person {name: 'Nils3'})-[f:FRIEND]-(q) RETURN q.name AS \
       friend, f.since AS since ORDER BY since DESC LIMIT 10" );
  ]

let b12_collect () =
  let g = Generate.social ~seed:13 ~people:300 ~avg_friends:8 in
  let g = Graph.create_index g ~label:"Person" ~key:"name" in
  let cache = Engine.create_plan_cache () in
  (* warm the cache once so the measured path is pure hits *)
  List.iter
    (fun (_, q) -> ignore (Engine.query_cached ~cache g q))
    b12_queries;
  let tests =
    List.concat_map
      (fun (name, q) ->
        [
          t (Printf.sprintf "cold/%s" name) (fun () ->
              (* a fresh session per run keeps its cache empty: this is
                 the pre-cache Session.run pipeline *)
              Engine.run ~mode:Engine.Planned g q);
          t (Printf.sprintf "hit/%s" name) (fun () ->
              Engine.query_cached ~cache g q);
        ])
      b12_queries
  in
  benchmark_group_collect
    "B12 plan cache: cold parse+plan+run vs cached-plan hit" tests

let emit_bench_json rows =
  let path = try Sys.getenv "BENCH_JSON" with Not_found -> "BENCH_pr1.json" in
  let find prefix name =
    (* bechamel reports grouped tests as "<group>/<test>" *)
    let suffix = "/" ^ prefix ^ "/" ^ name in
    let n = String.length suffix in
    List.find_map
      (fun (k, v) ->
        let kn = String.length k in
        if kn >= n && String.sub k (kn - n) n = suffix then Some v else None)
      rows
  in
  let pairs =
    List.filter_map
      (fun (name, _) ->
        match (find "cold" name, find "hit" name) with
        | Some cold, Some hit -> Some (name, cold, hit)
        | _ -> None)
      b12_queries
  in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"pr\": 1,\n";
  out "  \"experiment\": \"B12 query-plan cache: repeated-query throughput\",\n";
  out
    "  \"workload\": \"social graph, 300 people, avg 8 friends, index on \
     :Person(name)\",\n";
  out "  \"unit\": \"ns_per_run\",\n";
  out "  \"queries\": [\n";
  List.iteri
    (fun i (name, cold, hit) ->
      out
        "    {\"name\": %S, \"cold\": %.1f, \"cache_hit\": %.1f, \"speedup\": \
         %.2f}%s\n"
        name cold hit
        (if hit > 0. then cold /. hit else 0.)
        (if i = List.length pairs - 1 then "" else ","))
    pairs;
  out "  ],\n";
  let total f = List.fold_left (fun acc (_, c, h) -> acc +. f c h) 0. pairs in
  let cold_total = total (fun c _ -> c) and hit_total = total (fun _ h -> h) in
  out "  \"summary\": {\"cold_total\": %.1f, \"cache_hit_total\": %.1f, \
       \"speedup\": %.2f}\n"
    cold_total hit_total
    (if hit_total > 0. then cold_total /. hit_total else 0.);
  out "}\n";
  close_out oc;
  Printf.printf "\n(B12 results written to %s)\n" path

let b12 () = emit_bench_json (b12_collect ())

(* ------------------------------------------------------------------ *)
(* B13: durable storage — snapshot save/load, WAL append and replay    *)
(* ------------------------------------------------------------------ *)

module Snapshot = Cypher_storage.Snapshot
module Wal = Cypher_storage.Wal

(* Four measurements on the B12 social graph (300 people, ~1200
   relationships): the full snapshot encode+fsync+rename, the full
   decode+rebuild (including the property index), one fsync'd WAL
   commit, and the recovery replay of a 100-statement log through the
   engine.  The derived throughputs go to BENCH_pr2.json. *)

let b13_replay_stmts = 100

let b13_collect () =
  let g = Generate.social ~seed:13 ~people:300 ~avg_friends:8 in
  let g = Graph.create_index g ~label:"Person" ~key:"name" in
  let tmp = Filename.get_temp_dir_name () in
  let snap = Filename.concat tmp "cypher_bench_snapshot.bin" in
  let replay_wal = Filename.concat tmp "cypher_bench_replay.log" in
  let append_wal = Filename.concat tmp "cypher_bench_append.log" in
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ snap; replay_wal; append_wal ];
  Snapshot.save g snap;
  let w = Wal.open_writer replay_wal in
  ignore
    (Wal.append w
       (List.init b13_replay_stmts (fun i ->
            ( "CREATE (:B {v: $v})",
              [ ("v", Cypher_values.Value.Int i) ],
              0 ))));
  Wal.close_writer w;
  let records =
    match Wal.scan replay_wal with
    | Ok scan -> scan.Wal.records
    | Error e -> failwith e
  in
  let aw = Wal.open_writer append_wal in
  let tests =
    [
      t "snapshot-save" (fun () -> Snapshot.save g snap);
      t "snapshot-load" (fun () ->
          match Snapshot.load snap with
          | Ok g -> g
          | Error e -> failwith e);
      t "wal-append-fsync" (fun () ->
          Wal.append aw [ ("CREATE (:B {v: 1})", [], 0) ]);
      t "wal-replay-100" (fun () ->
          match Wal.replay Graph.empty records with
          | Ok g -> g
          | Error e -> failwith e);
    ]
  in
  let rows =
    benchmark_group_collect
      "B13 durable storage: snapshot save/load, WAL append (fsync) and replay"
      tests
  in
  Wal.close_writer aw;
  (rows, Graph.node_count g, Graph.rel_count g)

let emit_bench_pr2 (rows, nodes, rels) =
  let path = try Sys.getenv "BENCH_JSON" with Not_found -> "BENCH_pr2.json" in
  let find name =
    let suffix = "/" ^ name in
    let n = String.length suffix in
    List.find_map
      (fun (k, v) ->
        let kn = String.length k in
        if kn >= n && String.sub k (kn - n) n = suffix then Some v else None)
      rows
  in
  match
    (find "snapshot-save", find "snapshot-load", find "wal-append-fsync",
     find "wal-replay-100")
  with
  | Some save, Some load, Some append, Some replay ->
    let oc = open_out path in
    let out fmt = Printf.fprintf oc fmt in
    let per_s ns = if ns > 0. then 1e9 /. ns else 0. in
    let entities = nodes + rels in
    out "{\n";
    out "  \"pr\": 2,\n";
    out
      "  \"experiment\": \"B13 durable storage: snapshot save/load and WAL \
       throughput\",\n";
    out
      "  \"workload\": \"social graph, %d nodes, %d relationships, index on \
       :Person(name); %d-statement WAL\",\n"
      nodes rels b13_replay_stmts;
    out "  \"unit\": \"ns_per_run\",\n";
    out "  \"measurements\": {\n";
    out
      "    \"snapshot_save\": {\"ns\": %.1f, \"entities_per_s\": %.0f},\n"
      save
      (per_s save *. float_of_int entities);
    out
      "    \"snapshot_load\": {\"ns\": %.1f, \"entities_per_s\": %.0f},\n"
      load
      (per_s load *. float_of_int entities);
    out
      "    \"wal_append_fsync\": {\"ns\": %.1f, \"commits_per_s\": %.0f},\n"
      append (per_s append);
    out
      "    \"wal_replay\": {\"ns\": %.1f, \"statements_per_s\": %.0f}\n"
      replay
      (per_s replay *. float_of_int b13_replay_stmts);
    out "  }\n";
    out "}\n";
    close_out oc;
    Printf.printf "\n(B13 results written to %s)\n" path
  | _ -> Printf.printf "\n(B13: missing measurements, no JSON written)\n"

let b13 () = emit_bench_pr2 (b13_collect ())

(* ------------------------------------------------------------------ *)
(* B14: the query server — read throughput under concurrent clients    *)
(* ------------------------------------------------------------------ *)

module Server = Cypher_server.Server
module Client = Cypher_server.Client
module Store = Cypher_storage.Store

(* Wall-clock measurements (Bechamel's per-run model does not fit a
   multi-threaded workload), two workload shapes:

   - closed loop with think time: each client is a connected user that
     issues an indexed point lookup every ~[b14_think_s] — the TPC-style
     shape.  One client leaves the server idle during its think time;
     the aggregate-throughput gain at 4 and 16 clients measures how well
     the server overlaps independent clients (the readers never queue
     behind each other on the shared store's lock);
   - saturation: clients fire back-to-back with zero think time.  On a
     single-core host this measures the round-trip service rate — the
     hard ceiling the closed-loop curve approaches from below.

   Both are recorded, next to the same lookup run in-process through a
   warmed plan cache (the no-server floor). *)

let b14_query = "MATCH (p:Person {name: $name}) RETURN p.city AS city"
let b14_think_s = 0.0005
let b14_requests_each = 400

(* Returns (wall-clock seconds, mean per-request round-trip seconds).
   Round-trip time is measured around each query, so it excludes the
   think-time sleeps. *)
let b14_run_clients ~port ~clients ~requests_each ~think_s =
  let errors = Atomic.make 0 in
  let in_flight = Array.make clients 0. in
  let worker i =
    match Client.connect ~timeout:30. ~host:"127.0.0.1" ~port () with
    | Error _ -> Atomic.incr errors
    | Ok c ->
      let params = [ ("name", Cypher_values.Value.String "Nils3") ] in
      for _ = 1 to requests_each do
        let t0 = Unix.gettimeofday () in
        (match Client.query ~params c b14_query with
        | Ok _ -> ()
        | Error _ -> Atomic.incr errors);
        in_flight.(i) <- in_flight.(i) +. (Unix.gettimeofday () -. t0);
        if think_s > 0. then Unix.sleepf think_s
      done;
      Client.close c
  in
  let started = Unix.gettimeofday () in
  let threads = List.init clients (Thread.create worker) in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. started in
  if Atomic.get errors > 0 then
    failwith (Printf.sprintf "B14: %d failed requests" (Atomic.get errors));
  let total_in_flight = Array.fold_left ( +. ) 0. in_flight in
  (elapsed, total_in_flight /. float_of_int (clients * requests_each))

let b14 () =
  let g = Generate.social ~seed:13 ~people:300 ~avg_friends:8 in
  let g = Graph.create_index g ~label:"Person" ~key:"name" in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cypher_bench_b14_%d.db" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Array.to_list (Sys.readdir dir));
  (* seed the store through a snapshot rather than replaying CREATEs *)
  Snapshot.save g (Store.snapshot_file dir);
  let store =
    match Store.open_ dir with Ok s -> s | Error e -> failwith e
  in
  let server =
    match
      Server.start ~config:{ Server.default_config with Server.port = 0 } store
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  let port = Server.port server in
  (* in-process baseline: same lookups through a warmed plan cache *)
  let config =
    Cypher_semantics.Config.with_params
      [ ("name", Cypher_values.Value.String "Nils3") ]
      Cypher_semantics.Config.default
  in
  let cache = Engine.create_plan_cache () in
  let graph = Store.graph store in
  let baseline_n = 2000 in
  ignore (Engine.query_cached ~cache ~config graph b14_query);
  let started = Unix.gettimeofday () in
  for _ = 1 to baseline_n do
    ignore (Engine.query_cached ~cache ~config graph b14_query)
  done;
  let baseline_s = Unix.gettimeofday () -. started in
  (* warm the server's plan cache and the connection path *)
  ignore (b14_run_clients ~port ~clients:2 ~requests_each:20 ~think_s:0.);
  (* saturation: back-to-back requests; on one core this is the
     round-trip service-rate ceiling the closed-loop curve approaches *)
  let sat_elapsed, sat_lat =
    b14_run_clients ~port ~clients:1 ~requests_each:2000 ~think_s:0.
  in
  let saturation_rps = 2000. /. sat_elapsed in
  let levels =
    List.map
      (fun clients ->
        let elapsed, lat_s =
          b14_run_clients ~port ~clients ~requests_each:b14_requests_each
            ~think_s:b14_think_s
        in
        let total = b14_requests_each * clients in
        (clients, total, float_of_int total /. elapsed, lat_s *. 1e6))
      [ 1; 4; 16 ]
  in
  (match Server.stop server with Ok () -> () | Error e -> failwith e);
  let baseline_rps = float_of_int baseline_n /. baseline_s in
  let rps_of n = match List.find (fun (c, _, _, _) -> c = n) levels with
    | _, _, rps, _ -> rps
  in
  Printf.printf "\nB14 query server: point lookups, social graph (300 people)\n";
  Printf.printf "  in-process baseline   %10.0f req/s\n" baseline_rps;
  Printf.printf "  saturation (1 client) %10.0f req/s   %8.1f us/req\n"
    saturation_rps (sat_lat *. 1e6);
  Printf.printf "  closed loop, %.0f us think time per client:\n"
    (b14_think_s *. 1e6);
  List.iter
    (fun (clients, _, rps, lat_us) ->
      Printf.printf "  %2d client(s)          %10.0f req/s   %8.1f us/req\n"
        clients rps lat_us)
    levels;
  Printf.printf "  aggregate speedup 4 vs 1 clients: %.2fx\n"
    (rps_of 4 /. rps_of 1);
  let path = try Sys.getenv "BENCH_JSON" with Not_found -> "BENCH_pr3.json" in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"pr\": 3,\n";
  (* the server spreads connections over one request domain per core,
     so the client-scaling speedups depend on the core count *)
  out "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  out
    "  \"experiment\": \"B14 query server: requests/sec and latency under \
     concurrent clients\",\n";
  out
    "  \"workload\": \"indexed point lookup over TCP, social graph (300 \
     people); closed loop, %.0f us client think time, %d requests per \
     client\",\n"
    (b14_think_s *. 1e6) b14_requests_each;
  out "  \"baseline_inprocess_rps\": %.0f,\n" baseline_rps;
  out "  \"saturation_1_client_rps\": %.0f,\n" saturation_rps;
  out "  \"levels\": [\n";
  List.iteri
    (fun i (clients, total, rps, lat_us) ->
      out
        "    {\"clients\": %d, \"requests\": %d, \"rps\": %.0f, \
         \"latency_us\": %.1f}%s\n"
        clients total rps lat_us
        (if i = List.length levels - 1 then "" else ","))
    levels;
  out "  ],\n";
  out "  \"speedup_4_clients_vs_1\": %.2f,\n" (rps_of 4 /. rps_of 1);
  out "  \"speedup_16_clients_vs_1\": %.2f\n" (rps_of 16 /. rps_of 1);
  out "}\n";
  close_out oc;
  Printf.printf "(B14 results written to %s)\n" path

(* ------------------------------------------------------------------ *)
(* B15: the price of observability on the hot read path               *)
(* ------------------------------------------------------------------ *)

module Obs_registry = Cypher_obs.Registry
module Obs_trace = Cypher_obs.Trace
module Obs_slowlog = Cypher_obs.Slowlog

(* The PR-4 instrumentation (metrics counters, latency histogram, span
   fast path) is left permanently in the engine; this group prices it.
   Two warmed-plan-cache workloads each run three ways:

   - registry disabled ([Registry.set_enabled false]): the closest
     approximation to the uninstrumented engine — every counter and
     histogram update short-circuits on one atomic load;
   - the production default: registry on, no trace sink, slow-query log
     disarmed.  The budget is <5% over the disabled run on the
     representative read (the indexed 1-hop expansion);
   - trace sink attached: every parse/plan/execute/query span is
     serialised to JSON and handed to a consumer — the price of turning
     tracing on, reported for context (no budget).

   The instrumentation cost is a constant handful of atomic RMWs per
   query, so the bare point lookup — the cheapest query the engine can
   run — is reported as an absolute per-query floor in nanoseconds
   rather than judged against the percentage budget: quoting ~60 ns
   against a ~600 ns denominator says more about the denominator than
   the instrumentation. *)

let b15_point = "MATCH (p:Person {name: $name}) RETURN p.city AS city"

let b15_hop =
  "MATCH (p:Person {name: $name})-[:FRIEND]-(q) RETURN q.name AS friend"

let b15_time_one f n =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    f ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int n

(* Runs one workload in the three configurations; returns
   (off_ns, on_ns, sink_ns).  The configurations are interleaved
   round-robin and the best round kept per configuration: the difference
   being measured is tens of nanoseconds on a sub-microsecond query, so
   measuring each configuration in one contiguous block would fold
   thermal and scheduler drift straight into the result. *)
let b15_configs run =
  Obs_slowlog.set_threshold_ms None;
  Obs_trace.set_sink None;
  Obs_registry.set_enabled true;
  ignore (b15_time_one run 4_000);
  let null_sink = Some (fun (_ : string) -> ()) in
  let best_off = ref infinity
  and best_on = ref infinity
  and best_sink = ref infinity in
  let round best setup teardown =
    setup ();
    let t = b15_time_one run 20_000 in
    teardown ();
    if t < !best then best := t
  in
  for _ = 1 to 9 do
    round best_on ignore ignore;
    round best_off
      (fun () -> Obs_registry.set_enabled false)
      (fun () -> Obs_registry.set_enabled true);
    round best_sink
      (fun () -> Obs_trace.set_sink null_sink)
      (fun () -> Obs_trace.set_sink None)
  done;
  (!best_off *. 1e9, !best_on *. 1e9, !best_sink *. 1e9)

let b15_report label (off_ns, on_ns, sink_ns) =
  Printf.printf "  %s\n" label;
  Printf.printf "    registry disabled      %10.0f ns/query\n" off_ns;
  Printf.printf "    default (no sink)      %10.0f ns/query   %+6.2f%%\n"
    on_ns
    ((on_ns -. off_ns) /. off_ns *. 100.);
  Printf.printf "    trace sink attached    %10.0f ns/query   %+6.2f%%\n"
    sink_ns
    ((sink_ns -. off_ns) /. off_ns *. 100.)

let b15 () =
  let g = Generate.social ~seed:13 ~people:300 ~avg_friends:8 in
  let g = Graph.create_index g ~label:"Person" ~key:"name" in
  (* Resolve a name that provably exists so the point lookup returns a
     row and the 1-hop read genuinely expands — probing a missing name
     would silently benchmark the empty-seek path instead. *)
  let name =
    match Graph.nodes_with_label g "Person" with
    | n :: _ -> (
      match
        Cypher_values.Value.Smap.find_opt "name" (Graph.node_props g n)
      with
      | Some (Cypher_values.Value.String s) -> s
      | _ -> failwith "B15: Person without a name property")
    | [] -> failwith "B15: social graph has no Person nodes"
  in
  let config =
    Cypher_semantics.Config.with_params
      [ ("name", Cypher_values.Value.String name) ]
      Cypher_semantics.Config.default
  in
  let cache = Engine.create_plan_cache () in
  let run q () = ignore (Engine.query_cached ~cache ~config g q) in
  Printf.printf "\nB15 observability overhead (warmed plan cache)\n";
  let ((hop_off, hop_on, hop_sink) as hop) = b15_configs (run b15_hop) in
  b15_report "indexed 1-hop friend read (budget: <5% no-sink)" hop;
  let ((pt_off, pt_on, pt_sink) as pt) = b15_configs (run b15_point) in
  b15_report "bare point lookup (absolute floor, no budget)" pt;
  let overhead_pct = (hop_on -. hop_off) /. hop_off *. 100. in
  let sink_pct = (hop_sink -. hop_off) /. hop_off *. 100. in
  Printf.printf "  no-sink budget: <5%% — %s\n"
    (if overhead_pct < 5. then "within budget" else "OVER BUDGET");
  let path = try Sys.getenv "BENCH_JSON" with Not_found -> "BENCH_pr4.json" in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"pr\": 4,\n";
  out
    "  \"experiment\": \"B15 observability overhead on the hot read \
     path\",\n";
  out
    "  \"workload\": \"warmed plan cache over an indexed social graph \
     (300 people); best of 9 interleaved rounds of 20000 runs per \
     configuration\",\n";
  out "  \"hop_read\": {\n";
  out "    \"query\": \"%s\",\n" (String.map (function '"' -> '\'' | c -> c) b15_hop);
  out "    \"registry_disabled_ns\": %.0f,\n" hop_off;
  out "    \"default_no_sink_ns\": %.0f,\n" hop_on;
  out "    \"trace_sink_attached_ns\": %.0f,\n" hop_sink;
  out "    \"no_sink_overhead_pct\": %.2f,\n" overhead_pct;
  out "    \"sink_overhead_pct\": %.2f\n" sink_pct;
  out "  },\n";
  out "  \"point_lookup_floor\": {\n";
  out "    \"query\": \"%s\",\n" (String.map (function '"' -> '\'' | c -> c) b15_point);
  out "    \"registry_disabled_ns\": %.0f,\n" pt_off;
  out "    \"default_no_sink_ns\": %.0f,\n" pt_on;
  out "    \"trace_sink_attached_ns\": %.0f,\n" pt_sink;
  out "    \"no_sink_overhead_abs_ns\": %.0f\n" (pt_on -. pt_off);
  out "  },\n";
  out "  \"no_sink_budget_pct\": 5.0,\n";
  out "  \"within_budget\": %b\n" (overhead_pct < 5.);
  out "}\n";
  close_out oc;
  Printf.printf "(B15 results written to %s)\n" path

(* ------------------------------------------------------------------ *)
(* B16: multicore speedup of the morsel-parallel read executor        *)
(* ------------------------------------------------------------------ *)

(* Two read-heavy workloads — a grouped aggregation over a full label
   scan, and a 1-hop expand + aggregate — run at 1/2/4/8 worker
   domains.  The parallel path must (a) return exactly the sequential
   table at every width, (b) cost within 5% of the sequential executor
   at width 1 (it falls back to it, so this prices the dispatch check),
   and (c) scale on hosts that have cores to offer.  The speedup curve
   is measured honestly on whatever host runs this: with a single core
   the curve is expected to be flat (domains time-share one core); the
   JSON records [host_cores] so a reader can tell a scaling failure
   from a one-core host. *)

let b16_scan_agg =
  "MATCH (p:Person) RETURN p.age % 10 AS bucket, count(p) AS n, \
   sum(p.age) AS total, avg(p.age * 0.5) AS half"

let b16_hop_agg =
  "MATCH (p:Person)-[:FRIEND]->(q) RETURN count(q) AS hops, sum(q.age) AS \
   total, min(q.age) AS young, max(q.age) AS old"

(* best-of-rounds on the monotonic clock; each round amortises over
   [runs] executions *)
let b16_time run ~rounds ~runs =
  let best = ref infinity in
  for _ = 1 to rounds do
    let t0 = Cypher_obs.Clock.now_ns () in
    for _ = 1 to runs do
      run ()
    done;
    let t = float_of_int (Cypher_obs.Clock.now_ns () - t0) /. float_of_int runs in
    if t < !best then best := t
  done;
  !best

let b16 () =
  let g = Generate.social ~seed:29 ~people:2_000 ~avg_friends:8 in
  let widths = [ 1; 2; 4; 8 ] in
  let host_cores = Domain.recommended_domain_count () in
  let table_of config q =
    match Engine.query ~config g q with
    | Ok outcome -> outcome.Engine.table
    | Error e -> failwith ("B16: " ^ q ^ ": " ^ Engine.error_message e)
  in
  let measure q =
    let seq_table = table_of Cypher_semantics.Config.default q in
    let identical = ref true in
    let points =
      List.map
        (fun workers ->
          let config =
            Cypher_semantics.Config.with_parallel workers
              Cypher_semantics.Config.default
          in
          if not (Table.equal_ordered seq_table (table_of config q)) then
            identical := false;
          let cache = Engine.create_plan_cache () in
          let run () = ignore (Engine.query_cached ~cache ~config g q) in
          ignore (b16_time run ~rounds:1 ~runs:5) (* warm the plan cache *);
          (workers, b16_time run ~rounds:5 ~runs:20))
        widths
    in
    (points, !identical)
  in
  Printf.printf "\nB16 morsel-parallel read execution (host cores: %d)\n"
    host_cores;
  let report label (points, identical) =
    let base = List.assoc 1 points in
    Printf.printf "  %s\n" label;
    List.iter
      (fun (w, ns) ->
        Printf.printf "    %d worker%s %12.0f ns/query   speedup %.2fx\n" w
          (if w = 1 then " " else "s")
          ns (base /. ns))
      points;
    Printf.printf "    results identical to sequential: %b\n" identical
  in
  let scan = measure b16_scan_agg in
  report "grouped aggregation over a label scan (2000 nodes)" scan;
  let hop = measure b16_hop_agg in
  report "1-hop expand + aggregate (~16000 expansions)" hop;
  (* Width-1 dispatch overhead vs the plain sequential entry point.
     The two configurations are interleaved (as in B15) because the
     difference is one integer comparison per read segment — far below
     run-to-run drift if each were measured in its own block. *)
  let seq_ns, par1_ns =
    let runner config =
      let cache = Engine.create_plan_cache () in
      fun () -> ignore (Engine.query_cached ~cache ~config g b16_scan_agg)
    in
    let run_seq = runner Cypher_semantics.Config.default in
    let run_par1 =
      runner (Cypher_semantics.Config.with_parallel 1 Cypher_semantics.Config.default)
    in
    ignore (b16_time run_seq ~rounds:1 ~runs:5);
    ignore (b16_time run_par1 ~rounds:1 ~runs:5);
    let best_seq = ref infinity and best_par1 = ref infinity in
    for _ = 1 to 7 do
      let s = b16_time run_seq ~rounds:1 ~runs:20 in
      if s < !best_seq then best_seq := s;
      let p = b16_time run_par1 ~rounds:1 ~runs:20 in
      if p < !best_par1 then best_par1 := p
    done;
    (!best_seq, !best_par1)
  in
  let par1_pct = (par1_ns -. seq_ns) /. seq_ns *. 100. in
  Printf.printf "  parallel-1 vs sequential: %+.2f%% (budget: within 5%%)\n"
    par1_pct;
  let path = try Sys.getenv "BENCH_JSON" with Not_found -> "BENCH_pr5.json" in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  let emit_points (points, identical) =
    out "    \"results_identical_to_sequential\": %b,\n" identical;
    out "    \"points\": [";
    List.iteri
      (fun i (w, ns) ->
        let base = List.assoc 1 points in
        out "%s\n      {\"workers\": %d, \"ns_per_query\": %.0f, \"speedup\": \
             %.3f}"
          (if i > 0 then "," else "")
          w ns (base /. ns))
      points;
    out "\n    ]\n"
  in
  out "{\n";
  out "  \"pr\": 5,\n";
  out
    "  \"experiment\": \"B16 morsel-parallel read execution: speedup vs \
     worker domains\",\n";
  out "  \"host_cores\": %d,\n" host_cores;
  out
    "  \"note\": \"speedup is measured honestly on this host; on a \
     single-core container the curve is flat by construction (worker \
     domains time-share one core) and the >=2.5x @ 4 workers expectation \
     applies to hosts with >= 4 cores\",\n";
  out
    "  \"workload\": \"social graph, 2000 people, avg 8 friends; warmed \
     plan cache; best of 5 rounds of 20 runs\",\n";
  out "  \"scan_aggregation\": {\n";
  out "    \"query\": \"%s\",\n"
    (String.map (function '"' -> '\'' | c -> c) b16_scan_agg);
  emit_points scan;
  out "  },\n";
  out "  \"hop_aggregation\": {\n";
  out "    \"query\": \"%s\",\n"
    (String.map (function '"' -> '\'' | c -> c) b16_hop_agg);
  emit_points hop;
  out "  },\n";
  out "  \"parallel1_overhead_pct\": %.2f,\n" par1_pct;
  out "  \"parallel1_budget_pct\": 5.0,\n";
  out "  \"parallel1_within_budget\": %b\n" (par1_pct < 5.);
  out "}\n";
  close_out oc;
  Printf.printf "(B16 results written to %s)\n" path

(* ------------------------------------------------------------------ *)
(* B17: MVCC snapshot reads + WAL group commit                        *)
(* ------------------------------------------------------------------ *)

(* Two claims to price (wall-clock, like B14 — multi-threaded):

   - group commit lifts the write ceiling: each auto-commit CREATE costs
     one fsync when commits cannot group (the B13 replay ceiling); with
     group commit, concurrent committers share a leader's single fsync,
     so commits/s at 4 and 16 writers should beat the one-fsync-per-
     commit rate.  The fsyncs-per-commit ratio (from the WAL append
     counter) shows the mechanism directly.
   - MVCC keeps readers out of the write path: an analytic scan's p95
     must not degrade materially while 8 writers commit back-to-back,
     because a read pins a snapshot and takes no lock. *)

module Obs_reg = Cypher_obs.Registry

let b17_wal_appends = Obs_reg.counter "cypher_storage_wal_appends_total"
let b17_write_q = "CREATE (:W {c: $c, j: $j})"
let b17_read_q = "MATCH (p:Person) RETURN count(p) AS c"

(* Back-to-back writers; returns (commits/s, fsyncs per commit). *)
let b17_write_burst ~port ~clients ~requests_each =
  let errors = Atomic.make 0 in
  let worker w =
    match Client.connect ~timeout:30. ~host:"127.0.0.1" ~port () with
    | Error _ -> Atomic.incr errors
    | Ok c ->
      for j = 1 to requests_each do
        match
          Client.query c
            ~params:
              [
                ("c", Cypher_values.Value.Int w);
                ("j", Cypher_values.Value.Int j);
              ]
            b17_write_q
        with
        | Ok _ -> ()
        | Error _ -> Atomic.incr errors
      done;
      Client.close c
  in
  let appends0 = Obs_reg.value b17_wal_appends in
  let started = Unix.gettimeofday () in
  let threads = List.init clients (Thread.create worker) in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. started in
  if Atomic.get errors > 0 then
    failwith (Printf.sprintf "B17: %d failed writes" (Atomic.get errors));
  let commits = clients * requests_each in
  let fsyncs = Obs_reg.value b17_wal_appends - appends0 in
  (float_of_int commits /. elapsed, float_of_int fsyncs /. float_of_int commits)

(* p95 round-trip of [n] analytic scans on one connection, in us. *)
let b17_read_p95 ~port ~n =
  match Client.connect ~timeout:30. ~host:"127.0.0.1" ~port () with
  | Error e -> failwith ("B17 reader: " ^ e)
  | Ok c ->
    let lat = Array.make n 0. in
    for i = 0 to n - 1 do
      let t0 = Unix.gettimeofday () in
      (match Client.query c b17_read_q with
      | Ok _ -> ()
      | Error _ -> failwith "B17 reader: query failed");
      lat.(i) <- Unix.gettimeofday () -. t0
    done;
    Client.close c;
    Array.sort compare lat;
    lat.(min (n - 1) (n * 95 / 100)) *. 1e6

let b17 () =
  let g = Generate.social ~seed:17 ~people:300 ~avg_friends:8 in
  let g = Graph.create_index g ~label:"Person" ~key:"name" in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cypher_bench_b17_%d.db" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Array.to_list (Sys.readdir dir));
  Snapshot.save g (Store.snapshot_file dir);
  let store =
    match Store.open_ dir with Ok s -> s | Error e -> failwith e
  in
  let server =
    match
      Server.start ~config:{ Server.default_config with Server.port = 0 } store
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  let port = Server.port server in
  (* warm connections, plan caches and the write path *)
  ignore (b17_write_burst ~port ~clients:2 ~requests_each:10);
  ignore (b17_read_p95 ~port ~n:20);
  let requests_each = 150 in
  let levels =
    List.map
      (fun clients ->
        Store.set_group_commit store false;
        let solo_rps, solo_fpc = b17_write_burst ~port ~clients ~requests_each in
        Store.set_group_commit store true;
        let grp_rps, grp_fpc = b17_write_burst ~port ~clients ~requests_each in
        (clients, solo_rps, solo_fpc, grp_rps, grp_fpc))
      [ 1; 4; 16 ]
  in
  (* read p95: idle server vs during an 8-writer commit burst *)
  let p95_solo = b17_read_p95 ~port ~n:300 in
  let stop_writers = Atomic.make false in
  let burst_writer w =
    match Client.connect ~timeout:30. ~host:"127.0.0.1" ~port () with
    | Error _ -> ()
    | Ok c ->
      let j = ref 0 in
      while not (Atomic.get stop_writers) do
        incr j;
        ignore
          (Client.query c
             ~params:
               [
                 ("c", Cypher_values.Value.Int (1000 + w));
                 ("j", Cypher_values.Value.Int !j);
               ]
             b17_write_q)
      done;
      Client.close c
  in
  let writers = List.init 8 (Thread.create burst_writer) in
  let p95_burst = b17_read_p95 ~port ~n:300 in
  Atomic.set stop_writers true;
  List.iter Thread.join writers;
  (match Server.stop server with Ok () -> () | Error e -> failwith e);
  let pick n = List.find (fun (c, _, _, _, _) -> c = n) levels in
  let grp_rps_of n = match pick n with _, _, _, r, _ -> r in
  Printf.printf
    "\nB17 MVCC + group commit: auto-commit CREATEs over TCP (fsync-bound)\n";
  List.iter
    (fun (clients, solo_rps, solo_fpc, grp_rps, grp_fpc) ->
      Printf.printf
        "  %2d writer(s)  ungrouped %8.0f commits/s (%.2f fsync/commit)   \
         grouped %8.0f commits/s (%.2f fsync/commit)\n"
        clients solo_rps solo_fpc grp_rps grp_fpc)
    levels;
  Printf.printf "  read p95 (Person scan)  idle %8.1f us   during 8-writer \
                 burst %8.1f us\n"
    p95_solo p95_burst;
  let path = try Sys.getenv "BENCH_JSON" with Not_found -> "BENCH_pr6.json" in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"pr\": 6,\n";
  out "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  out
    "  \"experiment\": \"B17 MVCC snapshot reads + WAL group commit: \
     commits/sec with and without grouping, read p95 during a write \
     burst\",\n";
  out
    "  \"workload\": \"auto-commit CREATE over TCP, %d per writer; read = \
     full Person scan (300 people); group commit toggled via \
     Store.set_group_commit\",\n"
    requests_each;
  out "  \"write_levels\": [\n";
  List.iteri
    (fun i (clients, solo_rps, solo_fpc, grp_rps, grp_fpc) ->
      out
        "    {\"writers\": %d, \"ungrouped_commits_per_s\": %.0f, \
         \"ungrouped_fsyncs_per_commit\": %.2f, \
         \"grouped_commits_per_s\": %.0f, \"grouped_fsyncs_per_commit\": \
         %.2f}%s\n"
        clients solo_rps solo_fpc grp_rps grp_fpc
        (if i = List.length levels - 1 then "" else ","))
    levels;
  out "  ],\n";
  out "  \"group_commit_speedup_16_writers\": %.2f,\n"
    (grp_rps_of 16 /. (match pick 16 with _, r, _, _, _ -> r));
  out "  \"read_p95_us_idle\": %.1f,\n" p95_solo;
  out "  \"read_p95_us_during_8_writer_burst\": %.1f\n" p95_burst;
  out "}\n";
  close_out oc;
  Printf.printf "(B17 results written to %s)\n" path

(* ------------------------------------------------------------------ *)
(* B18: replication at scale — 1 primary + 0/1/2 replicas             *)
(* ------------------------------------------------------------------ *)

(* The standing closed-loop benchmark for the replicated deployment: a
   fixed pool of workers, each driving its own replica-aware Router,
   fires a sustained mixed workload (indexed point reads, 2-hop friend
   traversals, grouped neighborhood aggregates, and bursts of writes)
   against one primary plus 0, 1 or 2 WAL-shipping replicas, all served
   from a large generator graph.  Latencies land in registry histograms
   (per topology and operation class) and the JSON reports throughput
   and p50/p95/p99 from those, plus the replication health series:
   end-of-run replica lag, convergence time, resyncs, and how many
   reads the routers actually served from replicas vs bounced back to
   the primary on staleness.

   Scale knobs (environment): B18_NODES (default 1,000,000 people),
   B18_FRIENDS (avg degree, default 4), B18_CLIENTS (workers, default
   4), B18_SECONDS (per-topology duration, default 5).  CI runs a
   scaled-down shape; the defaults are the headline configuration.

   Honesty note, as in B14/B16: on a single-core host every server,
   replica applier and client worker time-shares one core, so adding
   replicas cannot add throughput — the curve is expected flat-to-
   slightly-down (replication itself costs cycles), and the JSON
   records [host_cores] so a reader can tell that from a scaling
   failure.  What the benchmark pins down everywhere is the *price* of
   replication (lag, convergence, stale fallbacks) under load. *)

module Replica = Cypher_replication.Replica
module Router = Cypher_replication.Router
module Value = Cypher_values.Value

let b18_env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
    match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let b18_fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cypher_bench_b18_%s_%d.db" tag (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Array.to_list (Sys.readdir dir));
  dir

let b18_point_q = "MATCH (p:Person {name: $name}) RETURN p.city AS city"

let b18_hop2_q =
  "MATCH (p:Person {name: $name})-[:FRIEND]->()-[:FRIEND]->(q) RETURN \
   count(q) AS n"

let b18_agg_q =
  "MATCH (p:Person {name: $name})-[:FRIEND]->(q) RETURN q.city AS city, \
   count(q) AS n"

let b18_write_q = "CREATE (:Event {w: $w, j: $j})"
let b18_burst = 8 (* writes per burst draw *)

(* Evenly-spaced sample of Person names: the workload's key space.  The
   generator derives names from its own PRNG stream, so they are read
   back from the graph rather than re-derived. *)
let b18_sample_names g =
  let ids = Array.of_list (Graph.nodes_with_label g "Person") in
  let n = Array.length ids in
  let take = min 4096 n in
  Array.init take (fun i ->
      match Graph.node_prop g ids.(i * n / take) "name" with
      | Value.String s -> s
      | _ -> failwith "B18: Person without a string name")

type b18_hists = {
  h_point : Obs_reg.histogram;
  h_hop : Obs_reg.histogram;
  h_agg : Obs_reg.histogram;
  h_write : Obs_reg.histogram;
}

(* Histogram names carry the topology so three runs in one process do
   not blend; the registry keeps them all for the final read-out. *)
let b18_make_hists nrep =
  let h cls =
    Obs_reg.histogram (Printf.sprintf "cypher_bench_b18_r%d_%s_us" nrep cls)
  in
  {
    h_point = h "point_read";
    h_hop = h "hop2";
    h_agg = h "neighborhood_agg";
    h_write = h "write";
  }

let b18_worker ~primary ~replicas ~names ~hists ~deadline ~errors ~ops w =
  match Router.create ~primary ~replicas () with
  | Error e ->
    Atomic.incr errors;
    prerr_endline ("B18 worker: " ^ e)
  | Ok router ->
    let rng = Random.State.make [| 0xB18; w |] in
    let pick_name () = names.(Random.State.int rng (Array.length names)) in
    let timed h q params =
      let t0 = Unix.gettimeofday () in
      (match Router.query ~params router q with
      | Ok _ -> Atomic.incr ops
      | Error _ -> Atomic.incr errors);
      Obs_reg.observe_us h
        (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6))
    in
    let j = ref 0 in
    while Unix.gettimeofday () < deadline do
      let name () = [ ("name", Value.String (pick_name ())) ] in
      let r = Random.State.int rng 100 in
      if r < 55 then timed hists.h_point b18_point_q (name ())
      else if r < 80 then timed hists.h_hop b18_hop2_q (name ())
      else if r < 92 then timed hists.h_agg b18_agg_q (name ())
      else
        (* a write burst, then back to reads: the next replica read is
           stamped with the burst's commit seq (session consistency) *)
        for _ = 1 to b18_burst do
          incr j;
          timed hists.h_write b18_write_q
            [ ("w", Value.Int w); ("j", Value.Int !j) ]
        done
    done;
    Router.close router

type b18_result = {
  br_replicas : int;
  br_ops : int;
  br_elapsed : float;
  br_bootstrap_s : float;
  br_classes : (string * Obs_reg.hist_snapshot) list;
  br_reads_replica : int;
  br_reads_primary : int;
  br_stale : int;
  br_records : int;
  br_resyncs : int;
  br_end_lag : int;
  br_converge_s : float;
}

let b18_counter name = Obs_reg.value (Obs_reg.counter name)

let b18_topology ~snapshot_bytes ~names ~clients ~duration nrep =
  let pdir = b18_fresh_dir (Printf.sprintf "p_of_r%d" nrep) in
  Snapshot.save_encoded ~bytes:snapshot_bytes (Store.snapshot_file pdir);
  let pstore =
    match Store.open_ pdir with Ok s -> s | Error e -> failwith e
  in
  let pserver =
    match
      Server.start ~config:{ Server.default_config with Server.port = 0 }
        pstore
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  let pport = Server.port pserver in
  let boot0 = Unix.gettimeofday () in
  let reps =
    List.init nrep (fun i ->
        let rdir = b18_fresh_dir (Printf.sprintf "r%d_of_r%d" i nrep) in
        let rstore =
          match Store.open_ rdir with Ok s -> s | Error e -> failwith e
        in
        let rserver =
          match
            Server.start
              ~config:
                {
                  Server.default_config with
                  Server.port = 0;
                  Server.replica_of = Some ("127.0.0.1", pport);
                }
              rstore
          with
          | Ok s -> s
          | Error e -> failwith e
        in
        let replica =
          match Replica.start ~host:"127.0.0.1" ~port:pport rstore with
          | Ok r -> r
          | Error e -> failwith ("B18 replica: " ^ e)
        in
        (rserver, replica))
  in
  let bootstrap_s = Unix.gettimeofday () -. boot0 in
  let primary = ("127.0.0.1", pport) in
  let replicas =
    List.map (fun (rs, _) -> ("127.0.0.1", Server.port rs)) reps
  in
  let hists = b18_make_hists nrep in
  let errors = Atomic.make 0 and ops = Atomic.make 0 in
  let reads_replica0 = b18_counter "cypher_router_reads_replica_total"
  and reads_primary0 = b18_counter "cypher_router_reads_primary_total"
  and stale0 = b18_counter "cypher_router_stale_fallbacks_total"
  and records0 = b18_counter "cypher_repl_records_applied_total"
  and resyncs0 = b18_counter "cypher_repl_resyncs_total" in
  let started = Unix.gettimeofday () in
  let deadline = started +. duration in
  let threads =
    List.init clients
      (Thread.create
         (b18_worker ~primary ~replicas ~names ~hists ~deadline ~errors ~ops))
  in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. started in
  if Atomic.get errors > 0 then
    failwith (Printf.sprintf "B18: %d failed requests" (Atomic.get errors));
  (* replication health at the moment the load stops, then convergence *)
  let p_seq = Store.last_seq pstore in
  let end_lag =
    List.fold_left
      (fun acc (_, r) -> max acc (p_seq - Replica.last_applied r))
      0 reps
  in
  let conv0 = Unix.gettimeofday () in
  List.iter
    (fun (_, r) ->
      if not (Replica.wait_for_seq r ~seq:p_seq ~timeout:60.) then
        failwith "B18: replica failed to converge after the run")
    reps;
  let converge_s = Unix.gettimeofday () -. conv0 in
  List.iter (fun (_, r) -> Replica.stop r) reps;
  List.iter
    (fun (rs, _) ->
      match Server.stop rs with Ok () -> () | Error e -> failwith e)
    reps;
  (match Server.stop pserver with Ok () -> () | Error e -> failwith e);
  {
    br_replicas = nrep;
    br_ops = Atomic.get ops;
    br_elapsed = elapsed;
    br_bootstrap_s = bootstrap_s;
    br_classes =
      [
        ("point_read", Obs_reg.hist_snapshot hists.h_point);
        ("hop2", Obs_reg.hist_snapshot hists.h_hop);
        ("neighborhood_agg", Obs_reg.hist_snapshot hists.h_agg);
        ("write", Obs_reg.hist_snapshot hists.h_write);
      ];
    br_reads_replica =
      b18_counter "cypher_router_reads_replica_total" - reads_replica0;
    br_reads_primary =
      b18_counter "cypher_router_reads_primary_total" - reads_primary0;
    br_stale = b18_counter "cypher_router_stale_fallbacks_total" - stale0;
    br_records = b18_counter "cypher_repl_records_applied_total" - records0;
    br_resyncs = b18_counter "cypher_repl_resyncs_total" - resyncs0;
    br_end_lag = end_lag;
    br_converge_s = converge_s;
  }

let b18_q snap p = (List.assoc p snap.Obs_reg.quantiles).Obs_reg.q_us

let b18 () =
  let nodes = b18_env_int "B18_NODES" 1_000_000 in
  let avg_friends = b18_env_int "B18_FRIENDS" 4 in
  let clients = b18_env_int "B18_CLIENTS" 4 in
  let duration = float_of_int (b18_env_int "B18_SECONDS" 5) in
  let host_cores = Domain.recommended_domain_count () in
  Printf.printf
    "\nB18 replication at scale: building the graph (%d people, avg %d \
     friends)...\n\
     %!"
    nodes avg_friends;
  let built0 = Unix.gettimeofday () in
  let names, snapshot_bytes, rels =
    let g = Generate.social ~seed:18 ~people:nodes ~avg_friends in
    let g = Graph.create_index g ~label:"Person" ~key:"name" in
    (b18_sample_names g, Snapshot.encode g, Graph.rel_count g)
  in
  Printf.printf "  built + encoded in %.1f s (snapshot %.1f MB)\n%!"
    (Unix.gettimeofday () -. built0)
    (float_of_int (String.length snapshot_bytes) /. 1048576.);
  let results =
    List.map
      (fun nrep ->
        Printf.printf "  running %d client(s) x %.0f s against 1 primary + \
                       %d replica(s)...\n%!"
          clients duration nrep;
        b18_topology ~snapshot_bytes ~names ~clients ~duration nrep)
      [ 0; 1; 2 ]
  in
  Printf.printf
    "\nB18 closed loop, %d clients, %.0f s per topology (host cores: %d)\n"
    clients duration host_cores;
  List.iter
    (fun r ->
      Printf.printf
        "  %d replica(s)  %8.0f ops/s   reads replica/primary %d/%d  stale \
         fallbacks %d\n"
        r.br_replicas
        (float_of_int r.br_ops /. r.br_elapsed)
        r.br_reads_replica r.br_reads_primary r.br_stale;
      List.iter
        (fun (cls, snap) ->
          if snap.Obs_reg.count > 0 then
            Printf.printf
              "      %-18s p50 %6d us   p95 %6d us   p99 %6d us   (%d ops)\n"
              cls (b18_q snap 0.5) (b18_q snap 0.95) (b18_q snap 0.99)
              snap.Obs_reg.count)
        r.br_classes;
      if r.br_replicas > 0 then
        Printf.printf
          "      end-of-run lag %d records, converged in %.3f s, %d \
           records shipped, %d resync(s)\n"
          r.br_end_lag r.br_converge_s r.br_records r.br_resyncs)
    results;
  let path = try Sys.getenv "BENCH_JSON" with Not_found -> "BENCH_pr7.json" in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"pr\": 7,\n";
  out
    "  \"experiment\": \"B18 replication at scale: closed-loop mixed \
     workload against 1 primary + 0/1/2 WAL-shipping replicas\",\n";
  out
    "  \"workload\": \"per-op mix 55%% indexed point read, 25%% 2-hop \
     traversal, 12%% grouped neighborhood aggregate, 8%% write bursts of \
     %d CREATEs; each worker drives its own replica-aware Router \
     (read-your-writes via min_seq)\",\n"
    b18_burst;
  out "  \"nodes\": %d,\n" nodes;
  out "  \"rels\": %d,\n" rels;
  out "  \"clients\": %d,\n" clients;
  out "  \"seconds_per_topology\": %.0f,\n" duration;
  out "  \"snapshot_mb\": %.1f,\n"
    (float_of_int (String.length snapshot_bytes) /. 1048576.);
  out "  \"host_cores\": %d,\n" host_cores;
  out
    "  \"note\": \"throughput is measured honestly on this host; on a \
     single-core container the primary, replica appliers and client \
     workers time-share one core, so the curve over replica counts is \
     expected flat-to-down and the interesting series are the \
     replication costs: lag, convergence, stale fallbacks\",\n";
  out "  \"topologies\": [\n";
  List.iteri
    (fun i r ->
      out "    {\n";
      out "      \"replicas\": %d,\n" r.br_replicas;
      out "      \"ops\": %d,\n" r.br_ops;
      out "      \"ops_per_s\": %.0f,\n"
        (float_of_int r.br_ops /. r.br_elapsed);
      out "      \"bootstrap_s\": %.3f,\n" r.br_bootstrap_s;
      out "      \"reads_on_replicas\": %d,\n" r.br_reads_replica;
      out "      \"reads_on_primary\": %d,\n" r.br_reads_primary;
      out "      \"stale_fallbacks\": %d,\n" r.br_stale;
      out "      \"records_shipped\": %d,\n" r.br_records;
      out "      \"resyncs\": %d,\n" r.br_resyncs;
      out "      \"end_of_run_lag_records\": %d,\n" r.br_end_lag;
      out "      \"converge_s\": %.3f,\n" r.br_converge_s;
      out "      \"latency_us\": {\n";
      List.iteri
        (fun j (cls, snap) ->
          out
            "        \"%s\": {\"count\": %d, \"p50\": %d, \"p95\": %d, \
             \"p99\": %d}%s\n"
            cls snap.Obs_reg.count (b18_q snap 0.5) (b18_q snap 0.95)
            (b18_q snap 0.99)
            (if j = List.length r.br_classes - 1 then "" else ","))
        r.br_classes;
      out "      }\n";
      out "    }%s\n" (if i = List.length results - 1 then "" else ","))
    results;
  out "  ]\n";
  out "}\n";
  close_out oc;
  Printf.printf "(B18 results written to %s)\n" path

(* ------------------------------------------------------------------- *)
(* B19: incremental view maintenance vs full re-execution               *)
(* ------------------------------------------------------------------- *)

(* A city-histogram view (the B12 aggregate shape) is materialized over
   a social graph and then maintained under a trickle of small commits:
   each round rewrites the city of [batch] random people out of [nodes]
   — far below 5% of the data, i.e. a >=95%-read workload.  Measured per
   round: the maintenance refresh (notify -> quiesced), the push latency
   until a subscriber holds the delta frame, and the delta size.  The
   baseline is what a cache-less client would pay instead: re-running
   the full aggregate on every commit.  The interesting curve is across
   scales — incremental refresh should track the batch size, O(changes),
   while re-execution grows linearly with the graph. *)

module Ivm = Cypher_ivm.Ivm

let b19_env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let b19_query = "MATCH (p:Person) RETURN p.city AS city, count(*) AS c"

let b19_cities =
  [| "Malmo"; "London"; "Berlin"; "Oslo"; "Porto"; "Turin" |]

type b19_scale = {
  bs_nodes : int;
  bs_rels : int;
  bs_build_s : float;
  bs_refresh_us : int array;  (* per-round notify -> quiesced *)
  bs_push_us : int array;  (* per-round notify -> subscriber frame *)
  bs_rows_delta : int;  (* summed |added| + |removed| across rounds *)
  bs_reexec_us : int;  (* full re-execution, best of 3 *)
  bs_incrementals : int;
  bs_fallbacks : int;
}

let b19_percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let b19_scale ~rounds ~batch nodes =
  let t0 = Unix.gettimeofday () in
  let g = Generate.social ~seed:19 ~people:nodes ~avg_friends:2 in
  let build_s = Unix.gettimeofday () -. t0 in
  let ids = Array.of_list (Graph.nodes_with_label g "Person") in
  let mgr = Ivm.create g 0 in
  (match Ivm.materialize mgr ~name:"cities" ~query:b19_query with
  | Ok _ -> ()
  | Error e -> failwith ("B19 materialize: " ^ Engine.error_message e));
  let sub =
    match Ivm.subscribe mgr ~query:b19_query with
    | Ok s -> s
    | Error e -> failwith ("B19 subscribe: " ^ Engine.error_message e)
  in
  (* consume the opening full-state frame *)
  (match Ivm.next_frame mgr sub ~timeout_s:10. with
  | `Frame f when f.Ivm.f_init -> ()
  | _ -> failwith "B19: no init frame");
  let rng = Random.State.make [| 0xB19; nodes |] in
  let refresh_us = Array.make rounds 0 in
  let push_us = Array.make rounds 0 in
  let rows_delta = ref 0 in
  let graph = ref g in
  for round = 0 to rounds - 1 do
    for _ = 1 to batch do
      let id = ids.(Random.State.int rng (Array.length ids)) in
      let city = b19_cities.(Random.State.int rng (Array.length b19_cities)) in
      graph := Graph.set_node_prop !graph id "city" (Value.String city)
    done;
    let seq = round + 1 in
    let t0 = Unix.gettimeofday () in
    Ivm.notify mgr !graph seq;
    (* the push is observed first: frames land before quiesce returns *)
    let deadline = t0 +. 30. in
    let rec pump () =
      match Ivm.next_frame mgr sub ~timeout_s:0.05 with
      | `Frame f ->
        rows_delta :=
          !rows_delta
          + List.fold_left (fun a (_, m) -> a + m) 0 f.Ivm.f_added
          + List.fold_left (fun a (_, m) -> a + m) 0 f.Ivm.f_removed;
        if f.Ivm.f_seq >= seq then Unix.gettimeofday ()
        else pump ()
      | `Timeout ->
        (* a batch whose city counts exactly cancel pushes no frame *)
        if Ivm.last_refreshed_seq mgr >= seq || Unix.gettimeofday () > deadline
        then Unix.gettimeofday ()
        else pump ()
      | `Closed -> failwith "B19: subscription closed"
    in
    let pushed_at = pump () in
    Ivm.quiesce mgr;
    refresh_us.(round) <-
      int_of_float ((Unix.gettimeofday () -. t0) *. 1e6);
    push_us.(round) <- int_of_float ((pushed_at -. t0) *. 1e6)
  done;
  let incrementals, fallbacks =
    match Ivm.view_infos mgr with
    | [ i ] -> (i.Ivm.vi_incrementals, i.Ivm.vi_fallbacks)
    | _ -> failwith "B19: expected exactly one view"
  in
  ignore (Ivm.unsubscribe mgr sub);
  Ivm.shutdown mgr;
  (* the cache-less baseline: full re-execution on the final graph *)
  let reexec_us = ref max_int in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    (match Engine.query ~mode:Engine.Planned !graph b19_query with
    | Ok _ -> ()
    | Error e -> failwith ("B19 re-execution: " ^ Engine.error_message e));
    reexec_us :=
      min !reexec_us (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6))
  done;
  Array.sort compare refresh_us;
  Array.sort compare push_us;
  {
    bs_nodes = nodes;
    bs_rels = Graph.rel_count g;
    bs_build_s = build_s;
    bs_refresh_us = refresh_us;
    bs_push_us = push_us;
    bs_rows_delta = !rows_delta;
    bs_reexec_us = !reexec_us;
    bs_incrementals = incrementals;
    bs_fallbacks = fallbacks;
  }

let b19 () =
  let small = b19_env_int "B19_SMALL" 100_000 in
  let large = b19_env_int "B19_NODES" 1_000_000 in
  let rounds = b19_env_int "B19_ROUNDS" 50 in
  let batch = b19_env_int "B19_BATCH" 100 in
  Printf.printf
    "\nB19 incremental view maintenance: city histogram under %d rounds of \
     %d-node updates\n\
     %!"
    rounds batch;
  let results =
    List.map
      (fun nodes ->
        Printf.printf "  building social graph (%d people)...\n%!" nodes;
        let r = b19_scale ~rounds ~batch nodes in
        Printf.printf
          "  %8d nodes  refresh p50 %6d us  p95 %6d us   push p50 %6d us   \
           re-exec %8d us   speedup %5.1fx   (%d incremental, %d fallback \
           refreshes)\n\
           %!"
          r.bs_nodes
          (b19_percentile r.bs_refresh_us 0.5)
          (b19_percentile r.bs_refresh_us 0.95)
          (b19_percentile r.bs_push_us 0.5)
          r.bs_reexec_us
          (float_of_int r.bs_reexec_us
          /. float_of_int (max 1 (b19_percentile r.bs_refresh_us 0.5)))
          r.bs_incrementals r.bs_fallbacks;
        r)
      [ small; large ]
  in
  (match results with
  | [ _; lg ] ->
    if lg.bs_incrementals = 0 then
      failwith "B19: the large-scale view never refreshed incrementally"
  | _ -> ());
  let path = try Sys.getenv "BENCH_JSON" with Not_found -> "BENCH_b19.json" in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"pr\": 8,\n";
  out
    "  \"experiment\": \"B19 incremental view maintenance: a materialized \
     city histogram (group-by + count over all Person nodes) maintained \
     from commit deltas vs full re-execution on every commit\",\n";
  out
    "  \"workload\": \"%d rounds; each rewrites the city of %d random \
     people (well under 5%% of either graph, i.e. a >=95%%-read \
     trickle), then waits for the refresh and for the subscriber's \
     delta frame\",\n"
    rounds batch;
  out "  \"query\": \"%s\",\n" (String.escaped b19_query);
  out
    "  \"note\": \"refresh latency should track the batch size \
     (O(changes)) while re-execution grows with the graph; the \
     acceptance bar is >=10x at 1M nodes\",\n";
  out "  \"scales\": [\n";
  List.iteri
    (fun i r ->
      let p x = b19_percentile x in
      out "    {\n";
      out "      \"nodes\": %d,\n" r.bs_nodes;
      out "      \"rels\": %d,\n" r.bs_rels;
      out "      \"build_s\": %.1f,\n" r.bs_build_s;
      out "      \"refresh_us\": {\"p50\": %d, \"p95\": %d, \"max\": %d},\n"
        (p r.bs_refresh_us 0.5) (p r.bs_refresh_us 0.95)
        r.bs_refresh_us.(Array.length r.bs_refresh_us - 1);
      out "      \"push_us\": {\"p50\": %d, \"p95\": %d},\n"
        (p r.bs_push_us 0.5) (p r.bs_push_us 0.95);
      out "      \"rows_delta_per_round\": %.1f,\n"
        (float_of_int r.bs_rows_delta /. float_of_int rounds);
      out "      \"reexec_us\": %d,\n" r.bs_reexec_us;
      out "      \"speedup_vs_reexec_p50\": %.1f,\n"
        (float_of_int r.bs_reexec_us
        /. float_of_int (max 1 (p r.bs_refresh_us 0.5)));
      out "      \"incremental_refreshes\": %d,\n" r.bs_incrementals;
      out "      \"fallback_refreshes\": %d\n" r.bs_fallbacks;
      out "    }%s\n" (if i = List.length results - 1 then "" else ","))
    results;
  out "  ]\n";
  out "}\n";
  close_out oc;
  Printf.printf "(B19 results written to %s)\n" path

(* ------------------------------------------------------------------ *)
(* B20: the price of distributed tracing and workload introspection   *)
(* ------------------------------------------------------------------ *)

module Obs_qstats = Cypher_obs.Qstats

(* PR-9 adds trace-context propagation (ids minted per request and
   shipped as options), per-fingerprint statement statistics, and
   commit-lineage spans.  This group prices the always-on parts on the
   B14 server read workload — an indexed point lookup over TCP against
   a warmed plan cache — in three configurations:

   - off: statement statistics disabled and the client sending no trace
     context — the pre-tracing floor;
   - default: statistics on and every request carrying a trace id, no
     sink attached — the production default.  Budget: <5% over off;
   - sink: a null trace sink additionally attached, so every server
     span is serialised with its trace ids — reported for context.

   Configurations are interleaved round-robin and the best round kept,
   like B15: the deltas are fractions of a microsecond on a localhost
   round trip of a dozen microseconds, so each timed window starts from
   a level GC state and the minimum over many short rounds filters the
   machine's contention spikes. *)

let b20_rounds = 25
let b20_requests = 1000

let b20_time_round client params n =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    match Client.query ~params client b14_query with
    | Ok _ -> ()
    | Error e -> failwith ("B20: " ^ Client.error_message e)
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int n

let b20 () =
  let g = Generate.social ~seed:13 ~people:300 ~avg_friends:8 in
  let g = Graph.create_index g ~label:"Person" ~key:"name" in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cypher_bench_b20_%d.db" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Array.to_list (Sys.readdir dir));
  Snapshot.save g (Store.snapshot_file dir);
  let store =
    match Store.open_ dir with Ok s -> s | Error e -> failwith e
  in
  let server =
    match
      Server.start ~config:{ Server.default_config with Server.port = 0 } store
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  let client =
    match
      Client.connect ~timeout:30. ~host:"127.0.0.1" ~port:(Server.port server) ()
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  let params = [ ("name", Cypher_values.Value.String "Nils3") ] in
  (* warm the connection, the server's plan cache and the stats table *)
  ignore (b20_time_round client params 200);
  let null_sink = Some (fun (_ : string) -> ()) in
  let off () =
    Obs_qstats.set_enabled false;
    Client.set_trace_propagation false
  in
  let default () =
    Obs_qstats.set_enabled true;
    Client.set_trace_propagation true
  in
  let sink () =
    default ();
    Obs_trace.set_sink null_sink
  in
  let unsink () = Obs_trace.set_sink None in
  let best_off = ref infinity
  and best_on = ref infinity
  and best_sink = ref infinity in
  let round best setup teardown =
    setup ();
    (* level the GC field: the sink configuration allocates heavily and
       would otherwise tax whichever configuration is timed next *)
    Gc.full_major ();
    let t = b20_time_round client params b20_requests in
    teardown ();
    if t < !best then best := t
  in
  for _ = 1 to b20_rounds do
    round best_on default ignore;
    round best_off off default;
    round best_sink sink unsink
  done;
  Client.close client;
  (match Server.stop server with Ok () -> () | Error e -> failwith e);
  let off_us = !best_off *. 1e6
  and on_us = !best_on *. 1e6
  and sink_us = !best_sink *. 1e6 in
  let overhead_pct = (on_us -. off_us) /. off_us *. 100. in
  let sink_pct = (sink_us -. off_us) /. off_us *. 100. in
  Printf.printf "\nB20 tracing + statement-statistics overhead (server read path)\n";
  Printf.printf "  tracing + stats off    %10.1f us/req\n" off_us;
  Printf.printf "  default (no sink)      %10.1f us/req   %+6.2f%%\n" on_us
    overhead_pct;
  Printf.printf "  null trace sink        %10.1f us/req   %+6.2f%%\n" sink_us
    sink_pct;
  Printf.printf "  no-sink budget: <5%% — %s\n"
    (if overhead_pct < 5. then "within budget" else "OVER BUDGET");
  let path = try Sys.getenv "BENCH_JSON" with Not_found -> "BENCH_b20.json" in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"pr\": 9,\n";
  out
    "  \"experiment\": \"B20 distributed tracing and workload \
     introspection overhead on the server read path\",\n";
  out
    "  \"workload\": \"indexed point lookup over TCP, social graph (300 \
     people), warmed plan cache; best of %d interleaved rounds of %d \
     requests per configuration\",\n"
    b20_rounds b20_requests;
  out "  \"off_us_per_req\": %.1f,\n" off_us;
  out "  \"default_no_sink_us_per_req\": %.1f,\n" on_us;
  out "  \"null_sink_us_per_req\": %.1f,\n" sink_us;
  out "  \"no_sink_overhead_pct\": %.2f,\n" overhead_pct;
  out "  \"sink_overhead_pct\": %.2f,\n" sink_pct;
  out "  \"no_sink_budget_pct\": 5.0,\n";
  out "  \"within_budget\": %b\n" (overhead_pct < 5.);
  out "}\n";
  close_out oc;
  Printf.printf "(B20 results written to %s)\n" path

(* ------------------------------------------------------------------ *)
(* B21: planner-native path finding                                    *)
(* ------------------------------------------------------------------ *)

(* Bound-endpoint shortestPath and cheapestPath on generator social
   graphs, planner (bidirectional BFS / bidirectional Dijkstra operators)
   against the reference evaluator's per-pattern search.  The pairs are
   drawn once per size so both engines answer the same questions. *)

type b21_scale = {
  ps_nodes : int;
  ps_rels : int;
  ps_planner_us : int array;  (* per-pair shortestPath, Planned mode *)
  ps_reference_us : int array;  (* per-pair shortestPath, Reference mode *)
  ps_cheapest_us : int array;  (* per-pair cheapestPath, Planned mode *)
  ps_rows : int;  (* sanity: total result rows across planner runs *)
}

let b21_time_query mode g q =
  let t0 = Unix.gettimeofday () in
  match Engine.query ~mode g q with
  | Error e -> failwith ("B21: " ^ Engine.error_message e)
  | Ok out ->
    ( int_of_float ((Unix.gettimeofday () -. t0) *. 1e6),
      Table.row_count out.Engine.table )

let b21_scale ~pairs ~ref_pairs ~cheap_pairs nodes =
  Printf.printf "  building social graph (%d people)...\n%!" nodes;
  let g = Generate.social ~seed:21 ~people:nodes ~avg_friends:8 in
  (* the planner seeks the bound endpoints through the name index; the
     reference evaluator scans — that asymmetry is part of what the
     experiment prices *)
  let g = Graph.create_index g ~label:"Person" ~key:"name" in
  let people = Array.of_list (Graph.nodes_with_label g "Person") in
  let rng = Cypher_gen.Prng.create 2121 in
  let name i =
    match Graph.node_prop g people.(i) "name" with
    | Cypher_values.Value.String s -> s
    | _ -> failwith "B21: person without a name"
  in
  let endpoints =
    Array.init pairs (fun _ ->
        ( name (Cypher_gen.Prng.int rng (Array.length people)),
          name (Cypher_gen.Prng.int rng (Array.length people)) ))
  in
  let shortest_q (a, b) =
    Printf.sprintf
      "MATCH p = shortestPath((a:Person {name: '%s'})-[:FRIEND*]-(b:Person \
       {name: '%s'})) RETURN length(p)"
      a b
  in
  let cheapest_q (a, b) =
    Printf.sprintf
      "MATCH p = cheapestPath((a:Person {name: '%s'})-[:FRIEND*]-(b:Person \
       {name: '%s'}), 'since') RETURN length(p)"
      a b
  in
  (* the point of the exercise: each plan must name its path operator,
     so a silent fallback to the reference evaluator fails the run *)
  List.iter
    (fun (q, op) ->
      match Engine.explain g (q endpoints.(0)) with
      | Ok text ->
        let n = String.length op and h = String.length text in
        let rec contains i = i + n <= h && (String.sub text i n = op || contains (i + 1)) in
        if not (contains 0) then
          failwith (Printf.sprintf "B21: %s did not plan natively:\n%s" op text)
      | Error e -> failwith ("B21 explain: " ^ Engine.error_message e))
    [ (shortest_q, "ShortestPath"); (cheapest_q, "CheapestPath") ];
  (* warm the statistics cache outside the timings *)
  ignore (b21_time_query Engine.Planned g (shortest_q endpoints.(0)));
  let rows = ref 0 in
  let time_all mode count mk =
    Array.map
      (fun ep ->
        let us, n = b21_time_query mode g (mk ep) in
        rows := !rows + n;
        us)
      (Array.sub endpoints 0 count)
  in
  let planner_us = time_all Engine.Planned pairs shortest_q in
  let cheapest_us = time_all Engine.Planned cheap_pairs cheapest_q in
  let reference_us = time_all Engine.Reference ref_pairs shortest_q in
  Array.sort compare planner_us;
  Array.sort compare cheapest_us;
  Array.sort compare reference_us;
  {
    ps_nodes = nodes;
    ps_rels = Graph.rel_count g;
    ps_planner_us = planner_us;
    ps_reference_us = reference_us;
    ps_cheapest_us = cheapest_us;
    ps_rows = !rows;
  }

let b21 () =
  let small = b19_env_int "B21_SMALL" 100_000 in
  let large = b19_env_int "B21_NODES" 1_000_000 in
  let pairs = b19_env_int "B21_PAIRS" 20 in
  let ref_pairs = b19_env_int "B21_REF_PAIRS" 5 in
  let cheap_pairs = b19_env_int "B21_CHEAP_PAIRS" 5 in
  Printf.printf
    "\nB21 planner-native path finding: bound-endpoint shortestPath and \
     cheapestPath,\n\
     planner operators vs the reference evaluator (%d pairs, %d reference \
     pairs)\n\
     %!"
    pairs ref_pairs;
  let results =
    List.map
      (fun n -> b21_scale ~pairs ~ref_pairs ~cheap_pairs n)
      [ small; large ]
  in
  let p50 a = b19_percentile a 0.5 and p95 a = b19_percentile a 0.95 in
  List.iter
    (fun r ->
      Printf.printf
        "  %8d nodes %8d rels   planner p50 %6d us  p95 %6d us   cheapest \
         p50 %6d us   reference p50 %8d us   speedup %5.1fx\n\
         %!"
        r.ps_nodes r.ps_rels (p50 r.ps_planner_us) (p95 r.ps_planner_us)
        (p50 r.ps_cheapest_us) (p50 r.ps_reference_us)
        (float_of_int (p50 r.ps_reference_us)
        /. float_of_int (max 1 (p50 r.ps_planner_us))))
    results;
  (* BENCH_pr10.json recorded the unidirectional Dijkstra this replaced;
     printing it beside today's figure shows a regression back to it *)
  Printf.printf
    "  cheapestPath planner p50: %s\n\
    \  (BENCH_pr10, unidirectional Dijkstra: 1257808 us at 100000 nodes, \
     64308295 us at 1000000 nodes)\n\
     %!"
    (String.concat ", "
       (List.map
          (fun r -> Printf.sprintf "%d us at %d nodes" (p50 r.ps_cheapest_us) r.ps_nodes)
          results));
  let path =
    try Sys.getenv "BENCH_JSON" with Not_found -> "BENCH_b21.json"
  in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"pr\": 10,\n";
  out "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  (* the whole run's peak, so the largest scale's memory is read here *)
  out "  \"peak_rss_mb\": %.1f,\n" (Kit.proc_hwm_mb (Unix.getpid ()));
  out
    "  \"experiment\": \"B21 planner-native path finding: bound-endpoint \
     shortestPath (bidirectional BFS) and cheapestPath (bidirectional \
     Dijkstra) vs the reference evaluator\",\n";
  out
    "  \"workload\": \"social graphs (avg 8 friends), %d random endpoint \
     pairs per size, undirected FRIEND shortestPath; reference timed on %d \
     pairs\",\n"
    pairs ref_pairs;
  out "  \"scales\": [\n";
  List.iteri
    (fun i r ->
      out "    {\n";
      out "      \"nodes\": %d,\n" r.ps_nodes;
      out "      \"rels\": %d,\n" r.ps_rels;
      out "      \"planner_shortest_p50_us\": %d,\n" (p50 r.ps_planner_us);
      out "      \"planner_shortest_p95_us\": %d,\n" (p95 r.ps_planner_us);
      out "      \"planner_cheapest_p50_us\": %d,\n" (p50 r.ps_cheapest_us);
      out "      \"reference_shortest_p50_us\": %d,\n" (p50 r.ps_reference_us);
      out "      \"speedup_p50\": %.1f\n"
        (float_of_int (p50 r.ps_reference_us)
        /. float_of_int (max 1 (p50 r.ps_planner_us)));
      out "    }%s\n" (if i = List.length results - 1 then "" else ","))
    results;
  out "  ]\n";
  out "}\n";
  close_out oc;
  Printf.printf "(B21 results written to %s)\n" path

(* ------------------------------------------------------------------ *)
(* B22: store lookups                                                  *)
(* ------------------------------------------------------------------ *)

(* The path-search kernel alone, on pairs from the standing [paths]
   workload's curated-pair generator (the first 64 shortestPath pairs a
   run with seed 1 sends, then 16 cheapestPath pairs) on the same graph.  Per query: the kernel's time with the engine's neighbour
   function ([Eval.search_neighbours], FRIEND in both directions, cost
   [since] for the cheapest search) and with a bare [Graph.iter_adjacent]
   one (no type filter), the adjacency reads (one per node a side
   expands) and relationships a search makes, and the time the engine's
   neighbour function alone takes to enumerate those nodes —
   enumeration's share of the kernel.  Each figure is the median over
   11 runs of all pairs. *)
let b22_paths d g =
  let module Eval = Cypher_semantics.Eval in
  let module Path_search = Cypher_algos.Path_search in
  let cfg = Config.default and reps = 11 in
  let by_name = Hashtbl.create 20_000 in
  List.iter
    (fun n ->
      match Graph.node_prop g n "name" with
      | Cypher_values.Value.String s -> Hashtbl.replace by_name s n
      | _ -> ())
    (Graph.nodes_with_label g "Person");
  let node i = Hashtbl.find by_name d.Dataset.names.(i) in
  let r = Dataset.rng (1 + 17) in
  let pairs weighted count =
    List.map
      (fun (p : Dataset.pair) -> (node p.src, node p.dst))
      (Dataset.curated_pairs d ~weighted r count)
  in
  let shortest_pairs = pairs false 64 and cheapest_pairs = pairs true 16 in
  let kmax = Eval.max_hops cfg g None in
  let engine cost =
    Eval.search_neighbours cfg g Cypher_table.Record.empty ~types:[ "FRIEND" ]
      ~props:[] ~cost Cypher_ast.Ast.Undirected
  in
  let bare cost n f =
    Graph.iter_adjacent g n `Both Graph.any_type (fun r m d -> f r m (cost d))
  in
  let shortest (fwd, bwd) (s, e) =
    Path_search.shortest ~bwd fwd s e ~kmin:1 ~kmax ~all:false ~accept:(fun _ -> true)
  in
  let cheapest (fwd, bwd) (s, e) = ignore (Path_search.cheapest ~fwd ~bwd s e) in
  let us_per_query pairs f =
    Kit.median
      (List.init reps (fun _ ->
           let t0 = Kit.now_ns () in
           List.iter f pairs;
           float (Kit.now_ns () - t0) /. 1e3 /. float (List.length pairs)))
  in
  let report name pairs search cost =
    let fwd, bwd = engine cost in
    (* one untimed pass records the nodes each search expands *)
    let reads = ref [] and rels = ref 0 in
    let counted next n f =
      reads := (next, n) :: !reads;
      rels := !rels + Graph.degree g n `Both;
      next n f
    in
    List.iter (search (counted fwd, counted bwd)) pairs;
    let reads = List.rev !reads and q = float (List.length pairs) in
    let kernel = us_per_query pairs (search (fwd, bwd)) in
    let bare_us = us_per_query pairs (search (bare cost, bare cost)) in
    let enumeration =
      us_per_query [ () ] (fun () ->
          List.iter (fun (next, n) -> next n (fun _ _ w -> ignore (Sys.opaque_identity w)))
            reads)
      /. q
    in
    Printf.printf
      "  %-9s kernel %7.1f us/query  bare adjacency %7.1f us  enumeration %6.1f us  \
       %6.1f adjacency reads %7.1f rels read per query\n%!"
      name kernel bare_us enumeration
      (float (List.length reads) /. q)
      (float !rels /. q)
  in
  Printf.printf "  path kernel, %d shortest and %d cheapest curated pairs:\n"
    (List.length shortest_pairs) (List.length cheapest_pairs);
  report "shortest" shortest_pairs shortest (fun _ -> ());
  report "cheapest" cheapest_pairs cheapest (Eval.path_cost "since")

(* What finding a record costs, on the standing benchmark's social graph
   after a snapshot round trip (the store a loaded server reads): the two
   [node_data] reads a label scan makes per person, that scan through the
   engine, and one outgoing adjacency enumeration per node.  Each figure is the
   median of 51 timed runs. *)
let b22 () =
  let people = 20_000 and reps = 51 in
  let d =
    Dataset.generate { Dataset.ds_name = "b22"; people; avg_friends = 8 }
  in
  let g =
    match
      Cypher_storage.Snapshot.decode
        (Cypher_storage.Snapshot.encode (Dataset.build_graph d))
    with
    | Ok (g, _) -> g
    | Error e -> failwith e
  in
  let median_ms f =
    Kit.median
      (List.init reps (fun _ ->
           let t0 = Kit.now_ns () in
           ignore (Sys.opaque_identity (f ()));
           float (Kit.now_ns () - t0) /. 1e6))
  in
  let persons = Graph.nodes_with_label g "Person" in
  let all = Graph.nodes g in
  let lookups_ms =
    median_ms (fun () ->
        List.iter
          (fun n ->
            ignore (Sys.opaque_identity (Graph.node_data g n));
            ignore (Sys.opaque_identity (Graph.node_data g n)))
          persons)
  in
  let q =
    "MATCH (p:Person) WHERE p.city = 'Oslo' AND p.name ENDS WITH '3' \
     RETURN count(*) AS n"
  in
  let scan_ms = median_ms (fun () -> run_planned g q) in
  let adjacent_ms =
    median_ms (fun () ->
        List.iter
          (fun n ->
            Graph.iter_adjacent g n `Out Graph.any_type (fun _ m _ ->
                ignore (Sys.opaque_identity m)))
          all)
  in
  Printf.printf
    "\nB22 store lookups, %d people, %d relationships (median of %d runs)\n\
    \  two node_data per Person   %8.3f ms  (%.1f ns per lookup)\n\
    \  label scan, Engine.run     %8.3f ms\n\
    \  iter_adjacent `Out, all     %8.3f ms\n%!"
    people (Graph.rel_count g) reps lookups_ms
    (lookups_ms *. 1e6 /. float (2 * List.length persons))
    scan_ms adjacent_ms;
  b22_paths d g

let groups =
  [
    ( "tables",
      fun () ->
        print_paper_tables ();
        benchmark_group
          "paper-table regeneration (one measurement per table/figure)"
          paper_table_tests );
    ("b1", b1); ("b2", b2); ("b3", b3); ("b4", b4); ("b5", b5); ("b6", b6);
    ("b7", b7); ("b8", b8); ("b9", b9); ("b10", b10); ("b11", b11);
    ("b12", b12); ("b13", b13); ("b14", b14); ("b15", b15); ("b16", b16);
    ("b17", b17); ("b18", b18); ("b19", b19); ("b20", b20); ("b21", b21);
    ("b22", b22);
  ]

let () =
  let selected =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst groups
    | names -> names
  in
  Printf.printf "# Measurements (Bechamel, monotonic clock, OLS ns/run)\n";
  List.iter
    (fun name ->
      match List.assoc_opt name groups with
      | Some f -> f ()
      | None -> Printf.printf "unknown bench group %S (have: %s)\n" name
                  (String.concat ", " (List.map fst groups)))
    selected;
  Printf.printf "\ndone.\n"

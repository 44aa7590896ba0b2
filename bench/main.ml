(* Benchmark harness.

   - [tables]: the time to regenerate each of the paper's worked-example
     tables (E2..E12) on its graph; [bin/experiments.exe] prints the
     tables themselves;

   - B1-B11: the performance-relevant claims of the paper (Section 2
     Expand locality and cost-based planning, Section 4.2 complexity,
     configurable morphisms) on synthetic workloads;

   - B13, B18-B22: durable storage, replication, view maintenance, the
     price of observability, path finding and store lookups.

   The paper itself reports no absolute performance numbers (its
   evaluation is the formal semantics); shapes, not absolute numbers,
   are the reproduction target.  The plan cache, server reads and group
   commit are measured end to end by the standing benchmark
   ([bench/standing]), not here.  Every group is timed on the standing
   benchmark's kit ([Kit.now_ns], [Kit.median], [Kit.quantile]) and ends
   with one JSON line on stdout. *)

open Cypher_gen
module Engine = Cypher_engine.Engine
module Graph = Cypher_graph.Graph
module Table = Cypher_table.Table
module Stats = Cypher_graph.Stats
module Config = Cypher_semantics.Config
module Snapshot = Cypher_storage.Snapshot
module Store = Cypher_storage.Store
module Server = Cypher_server.Server
module Client = Cypher_server.Client
module Registry = Cypher_obs.Registry
module Value = Cypher_values.Value

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

(* ns per call of [f], over [runs] back-to-back calls. *)
let time_ns ~runs f =
  let t0 = Kit.now_ns () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (f ()))
  done;
  float (Kit.now_ns () - t0) /. float runs

(* The best of [rounds] rounds of each measurement, the measurements
   interleaved round-robin: a difference of a few percent on a short
   query would drown in thermal and scheduler drift if each were timed
   in its own block. *)
let best_of rounds measures =
  let best = Array.make (Array.length measures) infinity in
  for _ = 1 to rounds do
    Array.iteri (fun i m -> best.(i) <- Float.min best.(i) (m ())) measures
  done;
  best

(* A positive integer from the environment: the headline and CI sizes of
   the scale groups differ. *)
let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> default

(* The median of a sample array, and a quantile of a sorted one (none
   without ten samples beyond it). *)
let p50 a = Kit.median (Array.to_list a)
let num = function Some v -> Kit.Num v | None -> Kit.Num nan
let show = function Some v -> Printf.sprintf "%.0f" v | None -> "-"

(* The group's one machine-readable line. *)
let emit group fields =
  print_endline (Kit.json_to_string (Kit.Obj (("group", Kit.Str group) :: fields)))

let pretty_ns ns =
  if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
  else Printf.sprintf "%8.0f ns" ns

(* Times each test: one warm-up call sizes the rounds at ~20 ms, and the
   figure is the median of 11 rounds (3 for a test slower than 0.1 s).
   Prints and returns [(name, ns_per_run)]. *)
let measure title tests =
  Printf.printf "\n## %s\n%!" title;
  List.map
    (fun (name, f) ->
      let once = time_ns ~runs:1 f in
      let runs = max 1 (int_of_float (2e7 /. Float.max 1. once)) in
      let rounds = if once > 1e8 then 3 else 11 in
      let ns = Kit.median (List.init rounds (fun _ -> time_ns ~runs f)) in
      Printf.printf "  %-44s %s/run\n%!" name (pretty_ns ns);
      (name, ns))
    tests

let ns_per_run rows =
  ("ns_per_run", Kit.Obj (List.map (fun (name, ns) -> (name, Kit.Num ns)) rows))

let bench ?(extra = []) group title tests =
  let rows = measure title tests in
  emit group ((("title", Kit.Str title) :: extra) @ [ ns_per_run rows ])

let t name f = (name, fun () -> ignore (f ()))

(* A scratch store directory, emptied. *)
let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cypher_bench_%s_%d.db" tag (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Array.to_list (Sys.readdir dir));
  dir

let open_store dir = match Store.open_ dir with Ok s -> s | Error e -> failwith e

let start_server ?replica_of store =
  match
    Server.start
      ~config:{ Server.default_config with Server.port = 0; replica_of }
      store
  with
  | Ok s -> s
  | Error e -> failwith e

let stop_server s = match Server.stop s with Ok () -> () | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* Paper tables: time the regeneration of each one                     *)
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

let tables () =
  bench "tables" "paper-table regeneration (one measurement per table/figure)"
    (List.map (fun (name, g, q) -> t name (fun () -> run_planned g q)) paper_tables)

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
  bench "b1"
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
  bench "b2"
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
  let configs =
    [
      ("edge-isomorphism", with_morphism Config.Edge_isomorphism None);
      ("node-isomorphism", with_morphism Config.Node_isomorphism None);
      ("homomorphism-cap8", with_morphism Config.Homomorphism (Some 8));
    ]
  in
  let counts = List.map (fun (name, config) -> (name, count config)) configs in
  Printf.printf "\n(B3 match counts on a 4-cycle, *1..8: %s)\n"
    (String.concat " " (List.map (fun (n, c) -> Printf.sprintf "%s=%d" n c) counts));
  bench "b3"
    ~extra:[ ("match_counts", Kit.Obj (List.map (fun (n, c) -> (n, Kit.Int c)) counts)) ]
    "B3 configurable morphisms (Sections 4.2 and 8)"
    (List.map
       (fun (name, config) ->
         t name (fun () -> Engine.run ~config ~mode:Engine.Reference g q))
       configs)

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
  bench "b4"
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
  bench "b5" "B5 aggregation (social graph, 400 people)" tests

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
  bench "b6" "B6 parser throughput" tests

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
  bench "b7"
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
  bench "b8"
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
  bench "b9" "B9 graph algorithms (paper intro: built-in algorithms)"
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
  bench "b10"
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
  bench "b11"
    "B11 interactive-style query mix (social graph, 300 people, indexed)"
    tests
(* ------------------------------------------------------------------ *)
(* B13: durable storage — snapshot save/load, WAL append and replay    *)
(* ------------------------------------------------------------------ *)

module Wal = Cypher_storage.Wal

(* Four measurements on a 300-person social graph (~1200 relationships):
   the full snapshot encode+fsync+rename, the full decode+rebuild
   (including the property index), one fsync'd WAL commit, and the
   recovery replay of a 100-record log — each record the change of one
   commit that creates a (:B {v}) node, applied to the empty graph with
   no query run — with the throughputs they imply. *)

let b13_replay_records = 100

let b13 () =
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
  let change base v =
    let g, _ = Graph.add_node ~labels:[ "B" ] ~props:[ ("v", Value.Int v) ] base in
    (g, ([], Snapshot.encode_change ~base g (Graph.delta_between ~since:base g)))
  in
  let w = Wal.open_writer replay_wal in
  ignore
    (Wal.append w
       (snd
          (List.fold_left_map change Graph.empty
             (List.init b13_replay_records Fun.id))));
  Wal.close_writer w;
  let records =
    match Wal.scan replay_wal with
    | Ok scan -> scan.Wal.records
    | Error e -> failwith e
  in
  let one = snd (change Graph.empty 1) in
  let aw = Wal.open_writer append_wal in
  let title =
    "B13 durable storage: snapshot save/load, WAL append (fsync) and replay"
  in
  let rows =
    measure title
      [
        t "snapshot-save" (fun () -> Snapshot.save g snap);
        t "snapshot-load" (fun () ->
            match Snapshot.load snap with Ok g -> g | Error e -> failwith e);
        t "wal-append-fsync" (fun () -> Wal.append aw [ one ]);
        t "wal-replay-100" (fun () ->
            List.fold_left
              (fun g r ->
                match Snapshot.apply_change g r.Wal.change with
                | Ok g -> g
                | Error e -> failwith e)
              Graph.empty records);
      ]
  in
  Wal.close_writer aw;
  let entities = float (Graph.node_count g + Graph.rel_count g) in
  let per_s name items = Kit.Num (items *. 1e9 /. List.assoc name rows) in
  emit "b13"
    [
      ("title", Kit.Str title);
      ("nodes", Kit.Int (Graph.node_count g));
      ("rels", Kit.Int (Graph.rel_count g));
      ns_per_run rows;
      ("snapshot_save_entities_per_s", per_s "snapshot-save" entities);
      ("snapshot_load_entities_per_s", per_s "snapshot-load" entities);
      ("wal_append_commits_per_s", per_s "wal-append-fsync" 1.);
      ( "wal_replay_records_per_s",
        per_s "wal-replay-100" (float b13_replay_records) );
    ]

(* ------------------------------------------------------------------ *)
(* B18: replication at scale — 1 primary + 0/1/2 replicas             *)
(* ------------------------------------------------------------------ *)

(* The closed-loop benchmark for the replicated deployment: a fixed pool
   of workers, each driving its own replica-aware Router, fires a
   sustained mixed workload (indexed point reads, 2-hop friend
   traversals, grouped neighborhood aggregates, and bursts of writes)
   against one primary plus 0, 1 or 2 WAL-shipping replicas, all served
   from a large generator graph.  Each worker records its own latencies
   per operation class; the report gives throughput and p50/p95/p99 of
   those, plus the replication health series: end-of-run replica lag,
   convergence time, resyncs, and how many reads the routers actually
   served from replicas vs bounced back to the primary on staleness.

   Scale knobs (environment): B18_NODES (default 1,000,000 people),
   B18_FRIENDS (avg degree, default 4), B18_CLIENTS (workers, default
   4), B18_SECONDS (per-topology duration, default 5).  CI runs a
   scaled-down shape; the defaults are the headline configuration.

   Honesty note: on a single-core host every server, replica
   applier and client worker time-shares one core, so adding replicas
   cannot add throughput — the curve is expected flat-to-slightly-down
   (replication itself costs cycles), and the JSON records [host_cores]
   so a reader can tell that from a scaling failure.  What the benchmark
   pins down everywhere is the *price* of replication (lag, convergence,
   stale fallbacks) under load. *)

module Replica = Cypher_replication.Replica
module Router = Cypher_replication.Router

let b18_point_q = "MATCH (p:Person {name: $name}) RETURN p.city AS city"

let b18_hop2_q =
  "MATCH (p:Person {name: $name})-[:FRIEND]->()-[:FRIEND]->(q) RETURN \
   count(q) AS n"

let b18_agg_q =
  "MATCH (p:Person {name: $name})-[:FRIEND]->(q) RETURN q.city AS city, \
   count(q) AS n"

let b18_write_q = "CREATE (:Event {w: $w, j: $j})"
let b18_burst = 8 (* writes per burst draw *)
let b18_classes = [| "point_read"; "hop2"; "neighborhood_agg"; "write" |]

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

(* [lat] holds this worker's own latency samples (us), one per class of
   [b18_classes]: samples are not shared between threads. *)
let b18_worker ~primary ~replicas ~names ~deadline ~errors ~ops (w, lat) =
  match Router.create ~primary ~replicas () with
  | Error e ->
    Atomic.incr errors;
    prerr_endline ("B18 worker: " ^ e)
  | Ok router ->
    let rng = Random.State.make [| 0xB18; w |] in
    let pick_name () = names.(Random.State.int rng (Array.length names)) in
    let timed cls q params =
      let t0 = Kit.now_ns () in
      (match Router.query ~params router q with
      | Ok _ -> Atomic.incr ops
      | Error _ -> Atomic.incr errors);
      Kit.add lat.(cls) ((Kit.now_ns () - t0) / 1000)
    in
    let j = ref 0 in
    while Kit.now_ns () < deadline do
      let name () = [ ("name", Value.String (pick_name ())) ] in
      let r = Random.State.int rng 100 in
      if r < 55 then timed 0 b18_point_q (name ())
      else if r < 80 then timed 1 b18_hop2_q (name ())
      else if r < 92 then timed 2 b18_agg_q (name ())
      else
        (* a write burst, then back to reads: the next replica read is
           stamped with the burst's commit seq (session consistency) *)
        for _ = 1 to b18_burst do
          incr j;
          timed 3 b18_write_q [ ("w", Value.Int w); ("j", Value.Int !j) ]
        done
    done;
    Router.close router

let b18_counter name = Registry.value (Registry.counter name)

(* One topology's run, as the fields of its JSON object. *)
let b18_topology ~snapshot_bytes ~names ~clients ~duration nrep =
  let pdir = fresh_dir (Printf.sprintf "b18_p_of_r%d" nrep) in
  Snapshot.save_encoded ~bytes:snapshot_bytes (Store.snapshot_file pdir);
  let pstore = open_store pdir in
  let pserver = start_server pstore in
  let pport = Server.port pserver in
  let boot0 = Kit.now_ns () in
  let reps =
    List.init nrep (fun i ->
        let rstore = open_store (fresh_dir (Printf.sprintf "b18_r%d_of_r%d" i nrep)) in
        let rserver = start_server ~replica_of:("127.0.0.1", pport) rstore in
        match Replica.start ~host:"127.0.0.1" ~port:pport rstore with
        | Ok r -> (rserver, r)
        | Error e -> failwith ("B18 replica: " ^ e))
  in
  let bootstrap_s = float (Kit.now_ns () - boot0) /. 1e9 in
  let primary = ("127.0.0.1", pport) in
  let replicas = List.map (fun (rs, _) -> ("127.0.0.1", Server.port rs)) reps in
  let errors = Atomic.make 0 and ops = Atomic.make 0 in
  let counters =
    [
      ("reads_on_replicas", "cypher_router_reads_replica_total");
      ("reads_on_primary", "cypher_router_reads_primary_total");
      ("stale_fallbacks", "cypher_router_stale_fallbacks_total");
      ("records_shipped", "cypher_repl_records_applied_total");
      ("resyncs", "cypher_repl_resyncs_total");
    ]
  in
  let before = List.map (fun (_, c) -> b18_counter c) counters in
  let lats =
    List.init clients (fun w ->
        (w, Array.map (fun _ -> Kit.samples ()) b18_classes))
  in
  let started = Kit.now_ns () in
  let deadline = started + int_of_float (duration *. 1e9) in
  let threads =
    List.map
      (Thread.create
         (b18_worker ~primary ~replicas ~names ~deadline ~errors ~ops))
      lats
  in
  List.iter Thread.join threads;
  let elapsed = float (Kit.now_ns () - started) /. 1e9 in
  if Atomic.get errors > 0 then
    failwith (Printf.sprintf "B18: %d failed requests" (Atomic.get errors));
  (* replication health at the moment the load stops, then convergence *)
  let p_seq = Store.last_seq pstore in
  let end_lag =
    List.fold_left (fun acc (_, r) -> max acc (p_seq - Replica.last_applied r)) 0 reps
  in
  let conv0 = Kit.now_ns () in
  List.iter
    (fun (_, r) ->
      if not (Replica.wait_for_seq r ~seq:p_seq ~timeout:60.) then
        failwith "B18: replica failed to converge after the run")
    reps;
  let converge_s = float (Kit.now_ns () - conv0) /. 1e9 in
  List.iter (fun (_, r) -> Replica.stop r) reps;
  List.iter (fun (rs, _) -> stop_server rs) reps;
  stop_server pserver;
  let health =
    List.map2 (fun (k, c) b -> (k, b18_counter c - b)) counters before
  in
  let ops_per_s = float (Atomic.get ops) /. elapsed in
  Printf.printf
    "  %d replica(s)  %8.0f ops/s   reads replica/primary %d/%d  stale \
     fallbacks %d\n"
    nrep ops_per_s
    (List.assoc "reads_on_replicas" health)
    (List.assoc "reads_on_primary" health)
    (List.assoc "stale_fallbacks" health);
  let classes =
    Array.to_list
      (Array.mapi
         (fun i cls ->
           let s = Kit.sorted (Kit.merge (List.map (fun (_, l) -> l.(i)) lats)) in
           let q p = Option.map float (Kit.quantile s p) in
           if Array.length s > 0 then
             Printf.printf "      %-18s p50 %6s us   p95 %6s us   p99 %6s us   (%d ops)\n"
               cls (show (q 0.5)) (show (q 0.95)) (show (q 0.99)) (Array.length s);
           ( cls,
             Kit.Obj
               [
                 ("count", Kit.Int (Array.length s));
                 ("p50", num (q 0.5));
                 ("p95", num (q 0.95));
                 ("p99", num (q 0.99));
               ] ))
         b18_classes)
  in
  if nrep > 0 then
    Printf.printf
      "      end-of-run lag %d records, converged in %.3f s, %d records \
       shipped, %d resync(s)\n"
      end_lag converge_s
      (List.assoc "records_shipped" health)
      (List.assoc "resyncs" health);
  ( Printf.sprintf "replicas_%d" nrep,
    Kit.Obj
      ([
         ("ops", Kit.Int (Atomic.get ops));
         ("ops_per_s", Kit.Num ops_per_s);
         ("bootstrap_s", Kit.Num bootstrap_s);
         ("end_of_run_lag_records", Kit.Int end_lag);
         ("converge_s", Kit.Num converge_s);
         ("latency_us", Kit.Obj classes);
       ]
      @ List.map (fun (k, v) -> (k, Kit.Int v)) health) )

let b18 () =
  let nodes = env_int "B18_NODES" 1_000_000 in
  let avg_friends = env_int "B18_FRIENDS" 4 in
  let clients = env_int "B18_CLIENTS" 4 in
  let duration = float (env_int "B18_SECONDS" 5) in
  let host_cores = Domain.recommended_domain_count () in
  Printf.printf
    "\nB18 replication at scale: building the graph (%d people, avg %d \
     friends)...\n\
     %!"
    nodes avg_friends;
  let built0 = Kit.now_ns () in
  let names, snapshot_bytes, rels =
    let g = Generate.social ~seed:18 ~people:nodes ~avg_friends in
    let g = Graph.create_index g ~label:"Person" ~key:"name" in
    (b18_sample_names g, Snapshot.encode g, Graph.rel_count g)
  in
  let snapshot_mb = float (String.length snapshot_bytes) /. 1048576. in
  Printf.printf "  built + encoded in %.1f s (snapshot %.1f MB)\n"
    (float (Kit.now_ns () - built0) /. 1e9)
    snapshot_mb;
  Printf.printf "B18 closed loop, %d clients, %.0f s per topology (host cores: %d)\n%!"
    clients duration host_cores;
  let topologies =
    List.map
      (b18_topology ~snapshot_bytes ~names ~clients ~duration)
      [ 0; 1; 2 ]
  in
  emit "b18"
    [
      ("nodes", Kit.Int nodes);
      ("rels", Kit.Int rels);
      ("clients", Kit.Int clients);
      ("seconds_per_topology", Kit.Num duration);
      ("snapshot_mb", Kit.Num snapshot_mb);
      ("host_cores", Kit.Int host_cores);
      ("topologies", Kit.Obj topologies);
    ]

(* ------------------------------------------------------------------- *)
(* B19: incremental view maintenance vs full re-execution               *)
(* ------------------------------------------------------------------- *)

(* A city-histogram view is materialized over a social graph and then
   maintained under a trickle of small commits: each round rewrites the
   city of [batch] random people out of [nodes] — far below 5% of the
   data, i.e. a >=95%-read workload.  Measured per round: the
   maintenance refresh (notify -> quiesced), the push latency until a
   subscriber holds the delta frame, and the delta size.  The baseline
   is what a cache-less client would pay instead: re-running the full
   aggregate on every commit.  The interesting curve is across scales —
   incremental refresh should track the batch size, O(changes), while
   re-execution grows linearly with the graph. *)

module Ivm = Cypher_ivm.Ivm

let b19_query = "MATCH (p:Person) RETURN p.city AS city, count(*) AS c"

let b19_cities =
  [| "Malmo"; "London"; "Berlin"; "Oslo"; "Porto"; "Turin" |]

let us_since t0 = float (Kit.now_ns () - t0) /. 1e3

let b19_scale ~rounds ~batch nodes =
  Printf.printf "  building social graph (%d people)...\n%!" nodes;
  let t0 = Kit.now_ns () in
  let g = Generate.social ~seed:19 ~people:nodes ~avg_friends:2 in
  let build_s = us_since t0 /. 1e6 in
  let ids = Array.of_list (Graph.nodes_with_label g "Person") in
  let mgr = Ivm.create g 0 in
  (* the view's state: the live words [materialize] adds, with the graph
     and the manager alive on both sides *)
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let live0 = live_words () in
  let t0 = Kit.now_ns () in
  (match Ivm.materialize mgr ~name:"cities" ~query:b19_query with
  | Ok _ -> ()
  | Error e -> failwith ("B19 materialize: " ^ Engine.error_message e));
  let materialize_ms = us_since t0 /. 1e3 in
  let view_heap_kb =
    float ((live_words () - live0) * (Sys.word_size / 8)) /. 1024.
  in
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
  let refresh_us = Array.make rounds 0. in
  let push_us = Array.make rounds 0. in
  let rows_delta = ref 0 in
  let graph = ref g in
  for round = 0 to rounds - 1 do
    for _ = 1 to batch do
      let id = ids.(Random.State.int rng (Array.length ids)) in
      let city = b19_cities.(Random.State.int rng (Array.length b19_cities)) in
      graph := Graph.set_node_prop !graph id "city" (Value.String city)
    done;
    let seq = round + 1 in
    let t0 = Kit.now_ns () in
    Ivm.notify mgr !graph seq;
    (* the push is observed first: frames land before quiesce returns *)
    let rec pump () =
      match Ivm.next_frame mgr sub ~timeout_s:0.05 with
      | `Frame f ->
        rows_delta :=
          !rows_delta
          + List.fold_left (fun a (_, m) -> a + m) 0 f.Ivm.f_added
          + List.fold_left (fun a (_, m) -> a + m) 0 f.Ivm.f_removed;
        if f.Ivm.f_seq >= seq then us_since t0 else pump ()
      | `Timeout ->
        (* a batch whose city counts exactly cancel pushes no frame *)
        if Ivm.last_refreshed_seq mgr >= seq || us_since t0 > 30e6 then
          us_since t0
        else pump ()
      | `Closed -> failwith "B19: subscription closed"
    in
    push_us.(round) <- pump ();
    Ivm.quiesce mgr;
    refresh_us.(round) <- us_since t0
  done;
  let incrementals, fallbacks =
    match Ivm.view_infos mgr with
    | [ i ] -> (i.Ivm.vi_incrementals, i.Ivm.vi_fallbacks)
    | _ -> failwith "B19: expected exactly one view"
  in
  ignore (Ivm.unsubscribe mgr sub);
  Ivm.shutdown mgr;
  (* the cache-less baseline: full re-execution on the final graph *)
  let reexec_us =
    (best_of 3
       [|
         (fun () ->
           time_ns ~runs:1 (fun () ->
               match Engine.query ~mode:Engine.Planned !graph b19_query with
               | Ok _ -> ()
               | Error e -> failwith ("B19 re-execution: " ^ Engine.error_message e))
           /. 1e3);
       |]).(0)
  in
  Array.sort compare refresh_us;
  Array.sort compare push_us;
  let refresh_p50 = p50 refresh_us and refresh_p95 = Kit.quantile refresh_us 0.95 in
  let speedup = reexec_us /. Float.max 1. refresh_p50 in
  Printf.printf
    "  %8d nodes  materialize %5.0f ms (%.0f KB live)  refresh p50 %6.0f us  \
     p95 %6s us   push p50 %6.0f us   re-exec %8.0f us   speedup %5.1fx   \
     (%d incremental, %d fallback refreshes)\n\
     %!"
    nodes materialize_ms view_heap_kb refresh_p50 (show refresh_p95)
    (p50 push_us) reexec_us speedup incrementals fallbacks;
  ( incrementals,
    ( string_of_int nodes,
      Kit.Obj
        [
          ("rels", Kit.Int (Graph.rel_count g));
          ("build_s", Kit.Num build_s);
          ("materialize_ms", Kit.Num materialize_ms);
          ("view_heap_kb", Kit.Num view_heap_kb);
          ("refresh_p50_us", Kit.Num refresh_p50);
          ("refresh_p95_us", num refresh_p95);
          ("refresh_max_us", Kit.Num refresh_us.(rounds - 1));
          ("push_p50_us", Kit.Num (p50 push_us));
          ("push_p95_us", num (Kit.quantile push_us 0.95));
          ("rows_delta_per_round", Kit.Num (float !rows_delta /. float rounds));
          ("reexec_us", Kit.Num reexec_us);
          ("speedup_vs_reexec_p50", Kit.Num speedup);
          ("incremental_refreshes", Kit.Int incrementals);
          ("fallback_refreshes", Kit.Int fallbacks);
        ] ) )

let b19 () =
  let small = env_int "B19_SMALL" 100_000 in
  let large = env_int "B19_NODES" 1_000_000 in
  let rounds = env_int "B19_ROUNDS" 50 in
  let batch = env_int "B19_BATCH" 100 in
  Printf.printf
    "\nB19 incremental view maintenance: city histogram under %d rounds of \
     %d-node updates\n\
     %!"
    rounds batch;
  let results = List.map (b19_scale ~rounds ~batch) [ small; large ] in
  if fst (List.nth results 1) = 0 then
    failwith "B19: the large-scale view never refreshed incrementally";
  emit "b19"
    [
      ("query", Kit.Str b19_query);
      ("rounds", Kit.Int rounds);
      ("batch", Kit.Int batch);
      ("scales", Kit.Obj (List.map snd results));
    ]

(* ------------------------------------------------------------------ *)
(* B20: the price of observability                                     *)
(* ------------------------------------------------------------------ *)

module Trace = Cypher_obs.Trace

(* The instrumentation left permanently in the engine and the server,
   priced in two rows of three configurations each:

   - in process, through a warmed plan cache: the metrics registry
     disabled ([Registry.set_enabled false]: every counter and histogram
     update short-circuits on one atomic load), the default (registry
     on, no trace sink, slow-query log disarmed), and a null trace sink
     attached (every span serialised to JSON).  Budget: <5% no-sink on
     the representative read, an indexed 1-hop expansion.  The bare
     point lookup is reported too, as an absolute per-query floor: its
     few atomic updates against a sub-microsecond denominator say more
     about the denominator than the instrumentation;
   - over TCP on the server read path (an indexed point lookup): the
     statement statistics off and the client sending no trace context,
     the default (statistics on, every request carrying a trace id, no
     sink), and a null trace sink attached.  Budget: <5% no-sink.

   The configurations are interleaved round-robin and the best round
   kept; each timed window starts from a level GC state, because the
   sink configuration allocates heavily and would otherwise tax
   whichever configuration is timed next. *)

let b20_point_q = "MATCH (p:Person {name: $name}) RETURN p.city AS city"

let b20_hop_q =
  "MATCH (p:Person {name: $name})-[:FRIEND]-(q) RETURN q.name AS friend"

(* ns per call of [run] in the configurations default, off and sink (in
   that order in each round), each given as its (setup, teardown);
   printed as one row. *)
let b20_row label ~budget ~rounds ~runs run configs =
  let best =
    best_of rounds
      (Array.map
         (fun (setup, teardown) () ->
           setup ();
           Gc.full_major ();
           let ns = time_ns ~runs run in
           teardown ();
           ns)
         configs)
  in
  let on = best.(0) and off = best.(1) and sink = best.(2) in
  let pct x = (x -. off) /. off *. 100. in
  Printf.printf
    "  %s\n    off                 %10.0f ns\n\
    \    default (no sink)   %10.0f ns   %+6.2f%%\n\
    \    null trace sink     %10.0f ns   %+6.2f%%\n"
    label off on (pct on) sink (pct sink);
  if budget then
    Printf.printf "    no-sink budget: <5%% — %s\n"
      (if pct on < 5. then "within budget" else "OVER BUDGET");
  Kit.Obj
    ([
       ("off_ns", Kit.Num off);
       ("default_no_sink_ns", Kit.Num on);
       ("null_sink_ns", Kit.Num sink);
       ("no_sink_overhead_pct", Kit.Num (pct on));
       ("sink_overhead_pct", Kit.Num (pct sink));
     ]
    @ if budget then [ ("within_budget", Kit.Bool (pct on < 5.)) ] else [])

let b20 () =
  let g = Generate.social ~seed:13 ~people:300 ~avg_friends:8 in
  let g = Graph.create_index g ~label:"Person" ~key:"name" in
  (* A name that provably exists, so the point lookup returns a row and
     the 1-hop read genuinely expands. *)
  let name =
    match Graph.nodes_with_label g "Person" with
    | n :: _ -> Graph.node_prop g n "name"
    | [] -> failwith "B20: social graph has no Person nodes"
  in
  let params = [ ("name", name) ] in
  let null_sink = Some (fun (_ : string) -> ()) in
  let sink = ((fun () -> Trace.set_sink null_sink), fun () -> Trace.set_sink None) in
  Printf.printf "\nB20 observability overhead (best of interleaved rounds)\n";
  Cypher_obs.Slowlog.set_threshold_ms None;
  Trace.set_sink None;
  Registry.set_enabled true;
  let config = Config.with_params params Config.default in
  let cache = Engine.create_plan_cache () in
  let in_process label ~budget q =
    let run () = Engine.query_cached ~cache ~config g q in
    ignore (time_ns ~runs:4_000 run);
    b20_row label ~budget ~rounds:9 ~runs:20_000 run
      [|
        (ignore, ignore);
        ((fun () -> Registry.set_enabled false), fun () -> Registry.set_enabled true);
        sink;
      |]
  in
  let hop = in_process "in process: indexed 1-hop friend read" ~budget:true b20_hop_q in
  let point =
    in_process "in process: bare point lookup (absolute floor)" ~budget:false
      b20_point_q
  in
  let dir = fresh_dir "b20" in
  Snapshot.save g (Store.snapshot_file dir);
  let server = start_server (open_store dir) in
  let client =
    match Client.connect ~timeout:30. ~host:"127.0.0.1" ~port:(Server.port server) () with
    | Ok c -> c
    | Error e -> failwith e
  in
  let run () =
    match Client.query ~params client b20_point_q with
    | Ok _ -> ()
    | Error e -> failwith ("B20: " ^ Client.error_message e)
  in
  (* warm the connection, the server's plan cache and the stats table *)
  ignore (time_ns ~runs:200 run);
  let stats_and_propagation on () =
    Cypher_obs.Qstats.set_enabled on;
    Client.set_trace_propagation on
  in
  let server_row =
    b20_row "server: indexed point lookup over TCP" ~budget:true ~rounds:25
      ~runs:1000 run
      [|
        (ignore, ignore);
        (stats_and_propagation false, stats_and_propagation true);
        sink;
      |]
  in
  Client.close client;
  stop_server server;
  emit "b20"
    [
      ("in_process_hop_read", hop);
      ("in_process_point_lookup", point);
      ("server_point_lookup", server_row);
      ("no_sink_budget_pct", Kit.Num 5.);
    ]

(* ------------------------------------------------------------------ *)
(* B21: planner-native path finding                                    *)
(* ------------------------------------------------------------------ *)

(* Bound-endpoint shortestPath and cheapestPath on generator social
   graphs, planner (bidirectional BFS / bidirectional Dijkstra operators)
   against the reference evaluator's per-pattern search.  The pairs are
   drawn once per size so both engines answer the same questions.  That
   both shapes plan natively is a tier-1 test (test_paths). *)

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
    | Value.String s -> s
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
  let query mode q () =
    match Engine.query ~mode g q with
    | Error e -> failwith ("B21: " ^ Engine.error_message e)
    | Ok _ -> ()
  in
  (* warm the statistics cache outside the timings *)
  query Engine.Planned (shortest_q endpoints.(0)) ();
  let time_all mode count mk =
    let us =
      Array.map
        (fun ep -> time_ns ~runs:1 (query mode (mk ep)) /. 1e3)
        (Array.sub endpoints 0 count)
    in
    Array.sort compare us;
    us
  in
  let planner = time_all Engine.Planned pairs shortest_q in
  let cheapest = time_all Engine.Planned cheap_pairs cheapest_q in
  let reference = time_all Engine.Reference ref_pairs shortest_q in
  let speedup = p50 reference /. Float.max 1. (p50 planner) in
  Printf.printf
    "  %8d nodes %8d rels   planner p50 %6.0f us  p95 %6s us   cheapest \
     p50 %6.0f us   reference p50 %8.0f us   speedup %5.1fx\n\
     %!"
    nodes (Graph.rel_count g) (p50 planner)
    (show (Kit.quantile planner 0.95))
    (p50 cheapest) (p50 reference) speedup;
  ( string_of_int nodes,
    Kit.Obj
      [
        ("rels", Kit.Int (Graph.rel_count g));
        ("planner_shortest_p50_us", Kit.Num (p50 planner));
        ("planner_shortest_p95_us", num (Kit.quantile planner 0.95));
        ("planner_cheapest_p50_us", Kit.Num (p50 cheapest));
        ("reference_shortest_p50_us", Kit.Num (p50 reference));
        ("speedup_p50", Kit.Num speedup);
      ] )

let b21 () =
  let small = env_int "B21_SMALL" 100_000 in
  let large = env_int "B21_NODES" 1_000_000 in
  let pairs = env_int "B21_PAIRS" 20 in
  let ref_pairs = env_int "B21_REF_PAIRS" 5 in
  let cheap_pairs = env_int "B21_CHEAP_PAIRS" 5 in
  Printf.printf
    "\nB21 planner-native path finding: bound-endpoint shortestPath and \
     cheapestPath,\n\
     planner operators vs the reference evaluator (%d pairs, %d reference \
     pairs)\n\
     %!"
    pairs ref_pairs;
  let scales =
    List.map (b21_scale ~pairs ~ref_pairs ~cheap_pairs) [ small; large ]
  in
  (* BENCH_pr10.json recorded the unidirectional Dijkstra this replaced;
     printing it beside today's figure shows a regression back to it *)
  Printf.printf
    "  (BENCH_pr10, unidirectional Dijkstra cheapestPath p50: 1257808 us at \
     100000 nodes, 64308295 us at 1000000 nodes)\n";
  emit "b21"
    [
      ("host_cores", Kit.Int (Domain.recommended_domain_count ()));
      (* the whole run's peak, so the largest scale's memory is read here *)
      ("peak_rss_mb", Kit.Num (Kit.proc_hwm_mb (Unix.getpid ())));
      ("pairs", Kit.Int pairs);
      ("reference_pairs", Kit.Int ref_pairs);
      ("cheapest_pairs", Kit.Int cheap_pairs);
      ("scales", Kit.Obj scales);
    ]

(* ------------------------------------------------------------------ *)
(* B22: store lookups                                                  *)
(* ------------------------------------------------------------------ *)

(* The path-search kernel alone, on pairs from the standing [paths]
   workload's curated-pair generator (the first 64 shortestPath pairs a
   run with seed 1 sends, then 16 cheapestPath pairs) on the same graph.
   Per query: the kernel's time with the engine's neighbour function
   ([Eval.search_neighbours], FRIEND in both directions) and with a bare
   [Graph] one (no type filter), the adjacency reads (one per node a
   side expands) and relationships a search makes, and the time the
   engine's neighbour function alone takes to enumerate those nodes —
   enumeration's share of the kernel.  The cheapest search runs twice:
   with costs [since] off the blocks' cost columns, as the engines read
   them, and with each cost read from its relationship's record
   ([Eval.path_cost]), as they did before the columns, so the split
   stays visible.  Each figure is the median over 11 runs of all pairs,
   after an untimed pass that fills the columns, as a server's first
   requests do. *)
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
  let engine payload =
    Eval.search_neighbours cfg g Cypher_table.Record.empty ~types:[ "FRIEND" ]
      ~props:[] ~payload Cypher_ast.Ast.Undirected
  in
  let bare cost n f =
    Graph.iter_adjacent g n `Both Graph.any_type (fun r m d -> f r m (cost d))
  in
  let bare_column n f =
    Graph.iter_adjacent_costs g n `Both Graph.any_type "since" (fun r m w _ -> f r m w)
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
  let report name pairs search payload bare =
    let fwd, bwd = engine payload in
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
    let bare_us = us_per_query pairs (search (bare, bare)) in
    let enumeration =
      us_per_query [ () ] (fun () ->
          List.iter (fun (next, n) -> next n (fun _ _ w -> ignore (Sys.opaque_identity w)))
            reads)
      /. q
    in
    let adjacency_reads = float (List.length reads) /. q and rels = float !rels /. q in
    Printf.printf
      "  %-15s kernel %7.1f us/query  bare adjacency %7.1f us  enumeration %6.1f us  \
       %6.1f adjacency reads %7.1f rels read per query\n%!"
      name kernel bare_us enumeration adjacency_reads rels;
    ( name,
      Kit.Obj
        [
          ("kernel_us", Kit.Num kernel);
          ("bare_adjacency_us", Kit.Num bare_us);
          ("enumeration_us", Kit.Num enumeration);
          ("adjacency_reads", Kit.Num adjacency_reads);
          ("rels_read", Kit.Num rels);
        ] )
  in
  Printf.printf "  path kernel, %d shortest and %d cheapest curated pairs:\n"
    (List.length shortest_pairs) (List.length cheapest_pairs);
  let since = Eval.path_cost "since" in
  (* in order: a list's elements are evaluated last first *)
  let shortest = report "shortest" shortest_pairs shortest (Of_record ignore) (bare ignore) in
  let column = report "cheapest" cheapest_pairs cheapest (Cost "since") bare_column in
  [
    shortest;
    column;
    report "cheapest_record" cheapest_pairs cheapest (Of_record since) (bare since);
  ]

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
  let paths = b22_paths d g in
  emit "b22"
    [
      ("people", Kit.Int people);
      ("rels", Kit.Int (Graph.rel_count g));
      ("node_data_pair_ms", Kit.Num lookups_ms);
      ("label_scan_ms", Kit.Num scan_ms);
      ("iter_adjacent_out_ms", Kit.Num adjacent_ms);
      ("path_kernel_per_query", Kit.Obj paths);
    ]

let groups =
  [
    ("tables", tables);
    ("b1", b1); ("b2", b2); ("b3", b3); ("b4", b4); ("b5", b5); ("b6", b6);
    ("b7", b7); ("b8", b8); ("b9", b9); ("b10", b10); ("b11", b11);
    ("b13", b13); ("b18", b18); ("b19", b19); ("b20", b20);
    ("b21", b21); ("b22", b22);
  ]

let () =
  let selected =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst groups
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name groups with
      | Some f -> f ()
      | None -> Printf.printf "unknown bench group %S (have: %s)\n" name
                  (String.concat ", " (List.map fst groups)))
    selected;
  Printf.printf "\ndone.\n"

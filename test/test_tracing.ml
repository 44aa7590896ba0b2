(* Distributed tracing and workload introspection: fingerprint
   normalization, per-fingerprint statistics, trace-context propagation
   over the wire (directly, through the read router, and onto a
   replica), the (trace_id, commit seq) lineage from a client write
   through group commit, replica apply, view refresh and the pushed
   delta frame, and the query-stats / cluster-health verbs. *)

open Cypher_values
module Graph = Cypher_graph.Graph
module Engine = Cypher_engine.Engine
module Trace = Cypher_obs.Trace
module Qstats = Cypher_obs.Qstats
module Registry = Cypher_obs.Registry
module Store = Cypher_storage.Store
module Protocol = Cypher_server.Protocol
module Server = Cypher_server.Server
module Client = Cypher_server.Client
module Replica = Cypher_replication.Replica
module Router = Cypher_replication.Router

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- fingerprint normalization ----------------------------------------- *)

let fingerprint text = (Qstats.fingerprint text).normalized
let fingerprint_hash text = (Qstats.fingerprint text).hash

let same_shape a b =
  Alcotest.(check string)
    (Printf.sprintf "%S ~ %S" a b)
    (fingerprint a) (fingerprint b)

let distinct_shape a b =
  if fingerprint_hash a = fingerprint_hash b then
    Alcotest.failf "%S and %S collided on %S" a b (fingerprint a)

let fingerprint_normalization () =
  (* literals are masked: the constant never distinguishes the shape *)
  same_shape "MATCH (n:Person {age: 42}) RETURN n.name"
    "MATCH (n:Person {age: 99}) RETURN n.name";
  same_shape "RETURN 'alice' AS who" "RETURN \"bob\" AS who";
  same_shape "RETURN 1.5e3 AS x" "RETURN 0x2a AS x";
  (* parameters mask to $? whatever their name *)
  same_shape "MATCH (n) WHERE n.id = $id RETURN n"
    "MATCH (n) WHERE n.id = $other RETURN n";
  (* whitespace and keyword case are canonical *)
  same_shape "match (n)   return n" "MATCH (n)\n\tRETURN n";
  (* comments are stripped, both styles *)
  same_shape "MATCH (n) // today\nRETURN n" "MATCH (n) RETURN n";
  same_shape "MATCH (n) /* x */ RETURN n" "MATCH (n) RETURN n";
  (* the masked text reads conventionally *)
  Alcotest.(check string) "canonical text" "MATCH (n:Person {age:?}) RETURN n.name"
    (fingerprint "match (n : Person{age: 42})  return n . name");
  (* identifiers keep their spelling: distinct shapes stay distinct *)
  distinct_shape "MATCH (n:Person) RETURN n" "MATCH (n:Animal) RETURN n";
  distinct_shape "MATCH (n) RETURN n.a" "MATCH (n) RETURN n.b";
  distinct_shape "MATCH (n) RETURN n" "MATCH (n) RETURN count(n)";
  (* the hash is stable across calls *)
  Alcotest.(check int) "hash stable"
    (fingerprint_hash "RETURN 1")
    (fingerprint_hash "RETURN 2")

let qstats_aggregation () =
  Qstats.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Qstats.set_enabled false;
      Qstats.reset ())
    (fun () ->
      Qstats.reset ();
      let g = Graph.empty in
      let run q =
        match Engine.query g q with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "query %S failed: %s" q (Engine.error_message e)
      in
      run "RETURN 1 AS probe";
      run "RETURN 2 AS probe";
      run "RETURN 3 AS probe";
      (match Engine.query g "RETURN bogus_function_xyz(1) AS e" with
      | Ok _ -> Alcotest.fail "expected an error"
      | Error _ -> ());
      let stats = Qstats.snapshot () in
      let shape = fingerprint "RETURN 1 AS probe" in
      let s =
        match List.find_opt (fun s -> s.Qstats.s_query = shape) stats with
        | Some s -> s
        | None -> Alcotest.failf "no stats entry for %S" shape
      in
      Alcotest.(check int) "three calls, one shape" 3 s.Qstats.s_calls;
      Alcotest.(check int) "rows summed" 3 s.Qstats.s_rows;
      Alcotest.(check int) "no errors on the shape" 0 s.Qstats.s_errors;
      Alcotest.(check bool) "quantiles ordered" true
        (s.Qstats.s_p50_us <= s.Qstats.s_p95_us
        && s.Qstats.s_p95_us <= s.Qstats.s_max_us);
      let err_shape = fingerprint "RETURN bogus_function_xyz(1) AS e" in
      match List.find_opt (fun s -> s.Qstats.s_query = err_shape) stats with
      | Some s -> Alcotest.(check int) "error counted" 1 s.Qstats.s_errors
      | None -> Alcotest.fail "errored shape not tracked")

(* A text run once and then [n] more times through one plan cache is
   one miss and [n] hits, and its statistics row says so. *)
let qstats_counts_cache_hits () =
  Qstats.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Qstats.set_enabled false;
      Qstats.reset ())
    (fun () ->
      Qstats.reset ();
      let cache = Engine.create_plan_cache () in
      let text = "RETURN 5 AS cached_probe" and n = 4 in
      for _ = 0 to n do
        match Engine.query_cached ~cache Graph.empty text with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Engine.error_message e)
      done;
      match
        List.find_opt
          (fun s -> s.Qstats.s_calls = n + 1)
          (Qstats.snapshot ())
      with
      | Some s -> Alcotest.(check int) "cache hits" n s.Qstats.s_cache_hits
      | None -> Alcotest.fail "no statistics row for the cached text")

(* --- wire-level fixtures ----------------------------------------------- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "cypher_tracing_test_%d_%d.db" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists d then
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
    else Sys.mkdir d 0o755;
    d

let open_store dir =
  match Store.open_ dir with
  | Ok s -> s
  | Error e -> Alcotest.failf "cannot open store %s: %s" dir e

let start_server ?replica_of store =
  let config = { Server.default_config with Server.port = 0; replica_of } in
  match Server.start ~config store with
  | Ok server -> server
  | Error e -> Alcotest.failf "cannot start server: %s" e

let connect port =
  match Client.connect ~timeout:30. ~host:"127.0.0.1" ~port () with
  | Ok c -> c
  | Error e -> Alcotest.failf "cannot connect: %s" e

let fast_replica =
  {
    Replica.default_config with
    fetch_wait_ms = 50;
    connect_timeout = 2.0;
    retry = { Client.attempts = 8; base_delay = 0.01; max_delay = 0.1 };
  }

let start_replica ~port store =
  match Replica.start ~config:fast_replica ~host:"127.0.0.1" ~port store with
  | Ok r -> r
  | Error e -> Alcotest.failf "cannot start replica: %s" e

let ok_query ?params ?options client q =
  match Client.query ?params ?options client q with
  | Ok r -> r
  | Error e -> Alcotest.failf "query %S failed: %s" q (Client.error_message e)

(* A thread-safe line capture over the process-wide trace sink. *)
type capture = { lock : Mutex.t; mutable lines : string list }

let with_capture f =
  let cap = { lock = Mutex.create (); lines = [] } in
  Trace.set_sink
    (Some
       (fun l ->
         Mutex.lock cap.lock;
         cap.lines <- l :: cap.lines;
         Mutex.unlock cap.lock));
  Fun.protect ~finally:(fun () -> Trace.set_sink None) (fun () -> f cap)

let captured cap preds =
  Mutex.lock cap.lock;
  let lines = cap.lines in
  Mutex.unlock cap.lock;
  List.exists (fun l -> List.for_all (contains l) preds) lines

(* Lineage spans from appliers and refresh threads arrive asynchronously. *)
let wait_captured cap preds =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    if captured cap preds then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* --- trace propagation over the wire ----------------------------------- *)

let propagation_direct () =
  let store = open_store (fresh_dir ()) in
  let server = start_server store in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop server))
    (fun () ->
      with_capture @@ fun cap ->
      let c = connect (Server.port server) in
      let ctx = { Trace.trace_id = Trace.new_id (); parent_span = 0 } in
      let hex = Trace.id_to_hex ctx.Trace.trace_id in
      Trace.with_context ctx (fun () ->
          ignore (ok_query c "CREATE (:T {k: 1})"));
      (* the server's engine span runs under the remote client's trace:
         same trace id, and a parent span id minted by the client *)
      Alcotest.(check bool) "server query span joins the client trace" true
        (captured cap
           [ "\"name\":\"query\""; "\"trace_id\":\"" ^ hex ^ "\"";
             "\"parent_span_id\"" ]);
      (* propagation can be turned off process-wide *)
      Client.set_trace_propagation false;
      Fun.protect
        ~finally:(fun () -> Client.set_trace_propagation true)
        (fun () ->
          let count_traced () =
            Mutex.lock cap.lock;
            let n =
              List.length
                (List.filter
                   (fun l -> contains l ("\"trace_id\":\"" ^ hex ^ "\""))
                   cap.lines)
            in
            Mutex.unlock cap.lock;
            n
          in
          let before = count_traced () in
          Trace.with_context ctx (fun () ->
              ignore (ok_query c "CREATE (:T {k: 2})"));
          Alcotest.(check int) "untraced when propagation is off" before
            (count_traced ()));
      Client.close c)

let propagation_router_and_replica () =
  let pstore = open_store (fresh_dir ()) in
  let primary = start_server pstore in
  let pport = Server.port primary in
  let rstore = open_store (fresh_dir ()) in
  let replica = start_replica ~port:pport rstore in
  let rserver = start_server ~replica_of:("127.0.0.1", pport) rstore in
  Fun.protect
    ~finally:(fun () ->
      Replica.stop replica;
      ignore (Server.stop rserver);
      ignore (Server.stop primary))
    (fun () ->
      let pc = connect pport in
      ignore (ok_query pc "CREATE (:R {k: 1})");
      if not (Replica.wait_for_seq replica ~seq:1 ~timeout:10.) then
        Alcotest.fail "replica never caught up";
      with_capture @@ fun cap ->
      let router =
        match
          Router.create ~primary:("127.0.0.1", pport)
            ~replicas:[ ("127.0.0.1", Server.port rserver) ]
            ()
        with
        | Ok r -> r
        | Error e -> Alcotest.failf "router: %s" e
      in
      let replica_reads =
        Registry.counter "cypher_router_reads_replica_total"
      in
      let reads0 = Registry.value replica_reads in
      let ctx = { Trace.trace_id = Trace.new_id (); parent_span = 0 } in
      let hex = Trace.id_to_hex ctx.Trace.trace_id in
      Trace.with_context ctx (fun () ->
          match Router.query router "MATCH (n:R) RETURN count(n) AS c" with
          | Ok r ->
            Alcotest.(check bool) "read answered" true
              (r.Client.rows = [ [ Value.Int 1 ] ])
          | Error e -> Alcotest.failf "router read: %s" (Client.error_message e));
      Alcotest.(check int) "read served by the replica" (reads0 + 1)
        (Registry.value replica_reads);
      (* the replica server executed the read under the router's trace *)
      Alcotest.(check bool) "replica span joins the trace" true
        (captured cap
           [ "\"name\":\"query\""; "\"trace_id\":\"" ^ hex ^ "\"" ]);
      Router.close router;
      Client.close pc)

(* --- commit lineage: write -> fsync -> replica -> view -> delta -------- *)

let write_lineage_end_to_end () =
  let pstore = open_store (fresh_dir ()) in
  (match Store.run pstore "CREATE (:City {name: 'seed', pop: 1})" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.error_message e));
  let primary = start_server pstore in
  let pport = Server.port primary in
  let rstore = open_store (fresh_dir ()) in
  let replica = start_replica ~port:pport rstore in
  let rserver = start_server ~replica_of:("127.0.0.1", pport) rstore in
  Fun.protect
    ~finally:(fun () ->
      Replica.stop replica;
      Server.kill rserver;
      ignore (Server.stop primary))
    (fun () ->
      if not (Replica.wait_for_seq replica ~seq:1 ~timeout:10.) then
        Alcotest.fail "replica bootstrap";
      (* one subscriber on the primary, one on the replica *)
      let psub_conn = connect pport in
      let psub =
        match
          Client.subscribe psub_conn
            ~query:"MATCH (c:City) RETURN count(*) AS n"
        with
        | Ok s -> s
        | Error e -> Alcotest.failf "subscribe: %s" (Client.error_message e)
      in
      let rsub_conn = connect (Server.port rserver) in
      let rsub =
        match
          Client.subscribe rsub_conn
            ~query:"MATCH (c:City) RETURN count(*) AS n"
        with
        | Ok s -> s
        | Error e ->
          Alcotest.failf "replica subscribe: %s" (Client.error_message e)
      in
      let init sub =
        match Client.next_delta sub with
        | Ok (Some d) ->
          Alcotest.(check bool) "init frame" true d.Client.d_init;
          Alcotest.(check int) "init frame is untraced" 0 d.Client.d_trace
        | _ -> Alcotest.fail "no init frame"
      in
      init psub;
      init rsub;
      with_capture @@ fun cap ->
      let pc = connect pport in
      let ctx = { Trace.trace_id = Trace.new_id (); parent_span = 0 } in
      let hex = Trace.id_to_hex ctx.Trace.trace_id in
      let w =
        Trace.with_context ctx (fun () ->
            ok_query pc "CREATE (:City {name: 'nid', pop: 2})")
      in
      let seq_attr = Printf.sprintf "\"seq\":\"%d\"" w.Client.seq in
      (* 1: the group-commit flush stamped the fsynced record *)
      Alcotest.(check bool) "commit_durable span keyed (trace, seq)" true
        (wait_captured cap
           [ "\"name\":\"commit_durable\""; "\"trace_id\":\"" ^ hex ^ "\"";
             seq_attr ]);
      (* 2: the replica applied the same record under the same key *)
      Alcotest.(check bool) "replica_apply span keyed (trace, seq)" true
        (wait_captured cap
           [ "\"name\":\"replica_apply\""; "\"trace_id\":\"" ^ hex ^ "\"";
             seq_attr ]);
      (* 3: view refresh joins the trace — on the primary and, from the
         replicated batch, on the replica (two refresh spans) *)
      Alcotest.(check bool) "view_refresh span joins the trace" true
        (wait_captured cap
           [ "\"name\":\"view_refresh\""; "\"trace_id\":\"" ^ hex ^ "\"" ]);
      (* 4: both pushed delta frames carry the writer's trace id *)
      let check_delta sub =
        match Client.next_delta sub with
        | Ok (Some d) ->
          Alcotest.(check bool) "a real delta" true (not d.Client.d_init);
          Alcotest.(check int) "frame carries the write's trace"
            ctx.Trace.trace_id d.Client.d_trace;
          Alcotest.(check bool) "count moved to 2" true
            (d.Client.d_added = [ ([ Value.Int 2 ], 1) ])
        | Ok None -> Alcotest.fail "stream ended early"
        | Error e -> Alcotest.failf "delta: %s" (Client.error_message e)
      in
      check_delta psub;
      check_delta rsub;
      (* 5: a transaction whose statements come from two traced requests
         is one record: both traces are stamped with its one seq, on the
         primary and on the replica *)
      let ctx_a = { Trace.trace_id = Trace.new_id (); parent_span = 0 } in
      let ctx_b = { Trace.trace_id = Trace.new_id (); parent_span = 0 } in
      Trace.with_context ctx_a (fun () ->
          ignore (ok_query pc "BEGIN");
          ignore (ok_query pc "CREATE (:City {name: 'a', pop: 3})"));
      let c =
        Trace.with_context ctx_b (fun () ->
            ignore (ok_query pc "CREATE (:City {name: 'b', pop: 4})");
            ok_query pc "COMMIT")
      in
      Alcotest.(check int) "the transaction is one record" (w.Client.seq + 1)
        c.Client.seq;
      let seq_attr = Printf.sprintf "\"seq\":\"%d\"" c.Client.seq in
      List.iter
        (fun ctx ->
          let trace = "\"trace_id\":\"" ^ Trace.id_to_hex ctx.Trace.trace_id ^ "\"" in
          List.iter
            (fun span ->
              Alcotest.(check bool) (span ^ " for both traces") true
                (wait_captured cap
                   [ "\"name\":\"" ^ span ^ "\""; trace; seq_attr ]))
            [ "commit_durable"; "replica_apply" ])
        [ ctx_a; ctx_b ];
      Client.close pc;
      Client.close psub_conn;
      Client.close rsub_conn)

(* --- query stats and cluster health over the wire ----------------------- *)

let find_column columns name =
  match List.find_index (String.equal name) columns with
  | Some i -> i
  | None -> Alcotest.failf "no column %S" name

let introspection_verbs () =
  let pstore = open_store (fresh_dir ()) in
  let primary = start_server pstore in
  let pport = Server.port primary in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop primary))
    (fun () ->
      Qstats.reset ();
      let pc = connect pport in
      ignore (ok_query pc "CREATE (:Q {v: 1})");
      ignore (ok_query pc "CREATE (:Q {v: 2})");
      ignore (ok_query pc "CREATE (:Q {v: 3})");
      let shape = fingerprint "CREATE (:Q {v: 1})" in
      let hash_hex = Trace.id_to_hex (fingerprint_hash "CREATE (:Q {v: 1})") in
      (match Client.query_stats pc with
      | Error e -> Alcotest.failf "query_stats: %s" (Client.error_message e)
      | Ok { Client.columns; rows; _ } ->
        let qi = find_column columns "query"
        and fi = find_column columns "fingerprint"
        and ci = find_column columns "calls"
        and ri = find_column columns "rows"
        and ti = find_column columns "last_trace_id" in
        let row =
          match
            List.find_opt (fun r -> List.nth r qi = Value.String shape) rows
          with
          | Some r -> r
          | None -> Alcotest.failf "no stats row for %S" shape
        in
        Alcotest.(check bool) "fingerprint rendered in hex" true
          (List.nth row fi = Value.String hash_hex);
        Alcotest.(check bool) "three calls collapsed onto the shape" true
          (match List.nth row ci with Value.Int n -> n = 3 | _ -> false);
        Alcotest.(check bool) "rows counted" true
          (match List.nth row ri with Value.Int _ -> true | _ -> false);
        (* the client stamps every request, so the shape has a last trace *)
        Alcotest.(check bool) "last trace recorded" true
          (match List.nth row ti with Value.String _ -> true | _ -> false));
      (* The replica starts only now: it replays the three CREATEs through
         the engine in this process, into the same statistics, so the
         primary's counts above must be read before it exists. *)
      let rstore = open_store (fresh_dir ()) in
      let replica = start_replica ~port:pport rstore in
      let rserver = start_server ~replica_of:("127.0.0.1", pport) rstore in
      Fun.protect
        ~finally:(fun () ->
          Replica.stop replica;
          ignore (Server.stop rserver))
      @@ fun () ->
      (* the same verb answers on a replica *)
      let rc = connect (Server.port rserver) in
      ignore (ok_query rc "MATCH (n:Q) RETURN count(n) AS c");
      (match Client.query_stats rc with
      | Error e ->
        Alcotest.failf "replica query_stats: %s" (Client.error_message e)
      | Ok { Client.columns; rows; _ } ->
        let qi = find_column columns "query" in
        let shape = fingerprint "MATCH (n:Q) RETURN count(n) AS c" in
        Alcotest.(check bool) "replica lists the read it served" true
          (List.exists (fun r -> List.nth r qi = Value.String shape) rows));
      (* cluster health names the role and the replication position *)
      (match Client.cluster_health pc with
      | Error e -> Alcotest.failf "cluster_health: %s" (Client.error_message e)
      | Ok pairs ->
        Alcotest.(check bool) "primary role" true
          (List.assoc_opt "role" pairs = Some (Value.String "primary"));
        Alcotest.(check bool) "commit watermark" true
          (match List.assoc_opt "last_seq" pairs with
          | Some (Value.Int n) -> n >= 3
          | _ -> false);
        Alcotest.(check bool) "fingerprint count" true
          (match List.assoc_opt "query_fingerprints" pairs with
          | Some (Value.Int n) -> n >= 1
          | _ -> false));
      (match Client.cluster_health rc with
      | Error e ->
        Alcotest.failf "replica cluster_health: %s" (Client.error_message e)
      | Ok pairs ->
        Alcotest.(check bool) "replica role" true
          (List.assoc_opt "role" pairs = Some (Value.String "replica"));
        Alcotest.(check bool) "replica names its primary" true
          (List.assoc_opt "primary" pairs
          = Some (Value.String (Printf.sprintf "127.0.0.1:%d" pport)));
        Alcotest.(check bool) "replica reports lag" true
          (match List.assoc_opt "replication_lag_records" pairs with
          | Some (Value.Int _) -> true
          | _ -> false));
      Client.close rc;
      Client.close pc)

(* --- slowlog attribution ------------------------------------------------ *)

let slowlog_attribution () =
  let module Slowlog = Cypher_obs.Slowlog in
  let lines = ref [] in
  let lock = Mutex.create () in
  Slowlog.set_sink
    (Some
       (fun l ->
         Mutex.lock lock;
         lines := l :: !lines;
         Mutex.unlock lock));
  Slowlog.set_threshold_ms (Some 0.);
  Slowlog.set_conn (Some "conn-test-7");
  Fun.protect
    ~finally:(fun () ->
      Slowlog.set_conn None;
      Slowlog.set_threshold_ms None;
      Slowlog.set_sink None)
    (fun () ->
      let ctx = { Trace.trace_id = Trace.new_id (); parent_span = 0 } in
      Trace.with_context ctx (fun () ->
          match Engine.query Graph.empty "RETURN 11 AS slow_probe" with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Engine.error_message e));
      let hex = Trace.id_to_hex ctx.Trace.trace_id in
      let fp = Trace.id_to_hex (fingerprint_hash "RETURN 11 AS slow_probe") in
      let line =
        match
          List.find_opt (fun l -> contains l "slow_probe") !lines
        with
        | Some l -> l
        | None -> Alcotest.fail "no slowlog line"
      in
      Alcotest.(check bool) "slow line carries the trace id" true
        (contains line ("\"trace_id\":\"" ^ hex ^ "\""));
      Alcotest.(check bool) "slow line carries the fingerprint" true
        (contains line ("\"fingerprint\":\"" ^ fp ^ "\""));
      Alcotest.(check bool) "slow line names the connection" true
        (contains line "\"conn\":\"conn-test-7\""))

(* The top-level keys of a flat-ish JSON object, in order: a key is a
   string at depth 1 followed by a colon. *)
let top_level_keys line =
  let n = String.length line in
  let keys = ref [] and depth = ref 0 and i = ref 0 in
  while !i < n do
    (match line.[!i] with
    | '{' -> incr depth
    | '}' -> decr depth
    | '"' ->
      let j = ref (!i + 1) in
      while line.[!j] <> '"' do
        if line.[!j] = '\\' then incr j;
        incr j
      done;
      if !depth = 1 && !j + 1 < n && line.[!j + 1] = ':' then
        keys := String.sub line (!i + 1) (!j - !i - 1) :: !keys;
      i := !j
    | _ -> ());
    incr i
  done;
  List.rev !keys

let slow_line_key_order () =
  let module Slowlog = Cypher_obs.Slowlog in
  let lines = ref [] in
  Slowlog.set_sink (Some (fun l -> lines := l :: !lines));
  Slowlog.set_threshold_ms (Some 0.);
  Slowlog.set_conn (Some "conn-order");
  Fun.protect
    ~finally:(fun () ->
      Slowlog.set_conn None;
      Slowlog.set_threshold_ms None;
      Slowlog.set_sink None)
    (fun () ->
      let ctx = { Trace.trace_id = Trace.new_id (); parent_span = 0 } in
      Trace.with_context ctx (fun () ->
          match Engine.query Graph.empty "RETURN 12 AS key_order_probe" with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Engine.error_message e));
      match List.find_opt (fun l -> contains l "key_order_probe") !lines with
      | None -> Alcotest.fail "no slowlog line"
      | Some line ->
        Alcotest.(check (list string))
          "keys in order"
          [
            "slow_query"; "ms"; "mode"; "rows"; "trace_id"; "fingerprint";
            "conn"; "spans"; "query";
          ]
          (top_level_keys line))

let suite =
  [
    Alcotest.test_case "fingerprints mask literals, keep identifiers" `Quick
      fingerprint_normalization;
    Alcotest.test_case "qstats aggregates calls, rows, errors, quantiles"
      `Quick qstats_aggregation;
    Alcotest.test_case "slowlog lines carry trace, fingerprint, connection"
      `Quick slowlog_attribution;
    Alcotest.test_case "slow line keys keep their order" `Quick
      slow_line_key_order;
    Alcotest.test_case "qstats counts plan-cache hits per text" `Quick
      qstats_counts_cache_hits;
    Alcotest.test_case "trace context crosses the wire" `Quick
      propagation_direct;
    Alcotest.test_case "router and replica join one trace" `Quick
      propagation_router_and_replica;
    Alcotest.test_case "one trace id follows a write to the delta frame"
      `Quick write_lineage_end_to_end;
    Alcotest.test_case "query stats and cluster health over the wire" `Quick
      introspection_verbs;
  ]

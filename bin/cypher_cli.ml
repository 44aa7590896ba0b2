(* A small interactive shell / one-shot runner for the Cypher engine.

   Usage:
     cypher_cli                          start a REPL on an empty graph
     cypher_cli --graph academic         start on a built-in graph
     cypher_cli --db path/to/db          open (or create) a durable database:
                                         each commit's changes go to a
                                         write-ahead log and survive restarts
     cypher_cli --serve HOST:PORT --db PATH
                                         serve the database to concurrent
                                         network clients until interrupted
     cypher_cli --serve HOST:PORT --db PATH --replica-of PHOST:PPORT
                                         serve as a read-only replica: the
                                         database bootstraps from the primary
                                         at PHOST:PPORT and keeps tailing its
                                         WAL; writes are rejected with a
                                         typed error naming the primary
     cypher_cli --connect HOST:PORT      REPL against a running server
     cypher_cli -q "MATCH (n) RETURN n"  run one query and exit
     cypher_cli --script file.cypher     run a ;-separated script
     cypher_cli --slow-query-ms N ...    log queries slower than N ms (with
                                         their per-phase span timings)
     cypher_cli --trace out.jsonl ...    write trace spans (parse, plan,
                                         execute, fsync, locks…) as JSONL

   REPL commands (anything else is sent to the engine as Cypher):
     :explain <query>    show the physical plan with row estimates
                         (works remotely over --connect too)
     :profile <query>    run the query, showing per-operator estimated vs
                         actual rows, db hits, and elapsed time
     :mode ref|plan      switch execution mode
     :graph <name>       load a built-in graph (academic, teachers, empty,
                         social, datacenter, fraud, citation)
     :stats              show graph statistics
     :export             print the graph as a CREATE script
     :dot                print the graph as Graphviz dot
     :load <file>        run a ;-separated Cypher script from a file
     :save <file>        write the graph as a CREATE script
     :schema <ddl>       add a constraint (Neo4j DDL syntax)
     :publish <name>     store the current graph in the multi-graph catalog
     :use <name>         switch to a catalog graph
     :graphs             list catalog graphs
     :composed <file>    run a composed multi-graph query (FROM GRAPH / RETURN GRAPH)
     :constraints        list constraints and check the graph
     :procedures         list CALL procedures
     :functions          list registered functions
     :materialize <name> <query>
                         register an incrementally-maintained view over a
                         read-only query; it is refreshed from committed
                         deltas (works in-memory, with --db and --connect)
     :views              list materialized views with freshness, row count,
                         maintenance mode and refresh counters
     :view <name>        read a view (lock-free: the last refreshed result)
     :unmaterialize <name>
                         drop a view, closing its subscribers
     :subscribe <query>  (--connect only) stream live result deltas for a
                         query as the graph changes; Enter stops the stream
     :checkpoint         (--db only) snapshot the graph, truncate the WAL
     :stats              graph statistics; with --db or --connect, also the
                         store health (WAL length, last sequence number,
                         snapshot age, plan-cache counters)
     :server-stats       (--connect only) server metrics: connections,
                         requests, errors, timeouts, latency, bytes
     :queries            per-fingerprint statement statistics (calls, rows,
                         db hits, p50/p95/max latency, last trace id) —
                         pg_stat_statements-style; with --connect the
                         server's, including on replicas
     :cluster            (--connect only) one-screen health summary: role,
                         replication lag, view freshness, group-commit
                         batching, subscriptions, connections
     :metrics            the process-wide metrics registry (engine, storage
                         and server series); with --connect, the server's
     :quit               exit *)

open Cypher_gen
module Engine = Cypher_engine.Engine
module Graph = Cypher_graph.Graph
module Export = Cypher_graph.Export
module Stats = Cypher_graph.Stats
module Schema = Cypher_schema.Schema
module Mg = Cypher_multigraph.Multigraph
module Store = Cypher_storage.Store
module Session = Cypher_session.Session
module Server = Cypher_server.Server
module Client = Cypher_server.Client
module Ivm = Cypher_ivm.Ivm

let builtin_graph = function
  | "academic" -> Some (Paper_graphs.academic ())
  | "teachers" -> Some (Paper_graphs.teachers ())
  | "empty" -> Some Graph.empty
  | "social" -> Some (Generate.social ~seed:1 ~people:100 ~avg_friends:6)
  | "datacenter" -> Some (Generate.datacenter ~seed:1 ~services:64 ~layers:4)
  | "fraud" ->
    Some (Generate.fraud ~seed:1 ~holders:50 ~identifiers:80 ~ring_fraction:0.2)
  | "citation" -> Some (Generate.citation ~seed:1 ~papers:60 ~avg_cites:3)
  | _ -> None

type state = {
  graph : Graph.t;
  mode : Engine.mode;
  schema : Schema.t;
  catalog : Mg.Catalog.t;
  store : Store.t option;  (** present when opened with [--db] *)
  client : Client.t option;  (** present when opened with [--connect] *)
  ivm : (Ivm.t * int ref) option;
      (** lazily-created local view manager and its hand-driven seq
          counter (only ticked in pure in-memory mode; with [--db] the
          store's publish hook feeds the manager) *)
}

(* In durable mode the graph lives in the store's session; [st.graph] is
   only the in-memory fallback. *)
let current_graph st =
  match st.store with Some s -> Store.graph s | None -> st.graph

(* host:port, as taken by --serve and --connect *)
let parse_endpoint s =
  match String.rindex_opt s ':' with
  | None -> Error (s ^ ": expected HOST:PORT")
  | Some i -> (
    let host = String.sub s 0 i in
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some port when port >= 0 && port < 65536 -> Ok (host, port)
    | _ -> Error (s ^ ": invalid port"))

let print_stat_pairs pairs =
  List.iter
    (fun (k, v) -> Format.printf "  %-24s %a@." k Cypher_values.Value.pp v)
    pairs

(* EXPLAIN/PROFILE against a server: ask via the request option so the
   query text travels unmodified, and print the one-column plan. *)
let run_remote_plan client option q =
  match
    Client.query ~options:[ (option, Cypher_values.Value.Bool true) ] client q
  with
  | Ok { Client.rows; _ } ->
    List.iter
      (function
        | [ Cypher_values.Value.String line ] -> print_endline line
        | row ->
          List.iter
            (fun v -> Format.printf "%a@." Cypher_values.Value.pp v)
            row)
      rows
  | Error e -> Printf.printf "%s\n" (Client.error_message e)

let print_rows columns rows =
  let table =
    Cypher_table.Table.create ~fields:columns
      (List.map
         (fun row -> Cypher_table.Record.of_list (List.combine columns row))
         rows)
  in
  Format.printf "%a@." Cypher_table.Table.pp table

let run_remote_query client q =
  match Client.query client q with
  | Ok { Client.columns; rows; _ } -> print_rows columns rows
  | Error e -> Printf.printf "%s\n" (Client.error_message e)

(* Materialized views use the server's verbs over --connect; otherwise a
   local manager is created on first use.  With --db it feeds from the
   store's publish hook; fully in-memory it is nudged by hand with the
   current graph before every view command. *)
let local_ivm st =
  match st.ivm with
  | Some pair -> (st, pair)
  | None ->
    let mgr =
      match st.store with
      | Some store -> Ivm.attach ~mode:st.mode store
      | None -> Ivm.create ~mode:st.mode (current_graph st) 0
    in
    let pair = (mgr, ref 0) in
    ({ st with ivm = Some pair }, pair)

let synced_ivm st =
  let st, (mgr, seq) = local_ivm st in
  (match st.store with
  | Some _ -> ()
  | None ->
    incr seq;
    Ivm.notify mgr st.graph !seq);
  Ivm.quiesce mgr;
  (st, mgr)

let print_delta (d : Client.delta) =
  let pp_side tag rows =
    List.iter
      (fun (row, mult) ->
        Printf.printf "  %s %s%s\n" tag
          (String.concat ", "
             (List.map (Format.asprintf "%a" Cypher_values.Value.pp) row))
          (if mult = 1 then "" else Printf.sprintf " x%d" mult))
      rows
  in
  Printf.printf "%s seq=%d%s (%s)\n" d.Client.d_view d.Client.d_seq
    (if d.Client.d_init then " [init]" else "")
    (String.concat ", " d.Client.d_columns);
  pp_side "+" d.Client.d_added;
  pp_side "-" d.Client.d_removed;
  flush stdout

let run_query st q =
  match st.client with
  | Some client ->
    run_remote_query client q;
    st
  | None ->
  match st.store with
  | Some store -> (
    match Store.run store q with
    | Ok table ->
      Format.printf "%a@." Cypher_table.Table.pp table;
      st
    | Error e ->
      Printf.printf "%s\n" (Engine.error_message e);
      st)
  | None -> (
    let result =
      if Schema.constraints st.schema = [] then
        Engine.query ~mode:st.mode st.graph q
      else Schema.guarded_query ~schema:st.schema st.graph q
    in
    match result with
    | Ok outcome ->
      Format.printf "%a@." Cypher_table.Table.pp outcome.Engine.table;
      { st with graph = outcome.Engine.graph }
    | Error e ->
      Printf.printf "%s\n" (Engine.error_message e);
      st)

let run_script st text =
  match st.store with
  | Some _ ->
    (* split on top-level semicolons crudely: the durable session logs
       statement by statement, so feed them one at a time *)
    List.fold_left
      (fun st stmt ->
        let stmt = String.trim stmt in
        if stmt = "" then st else run_query st stmt)
      st
      (String.split_on_char ';' text)
  | None -> (
    match Engine.run_script ~mode:st.mode st.graph text with
    | Ok outcome ->
      Format.printf "%a@." Cypher_table.Table.pp outcome.Engine.table;
      { st with graph = outcome.Engine.graph }
    | Error e ->
      Printf.printf "%s\n" e;
      st)

let with_arg line prefix f st =
  if
    String.length line > String.length prefix
    && String.sub line 0 (String.length prefix) = prefix
  then
    Some
      (f st
         (String.trim
            (String.sub line (String.length prefix)
               (String.length line - String.length prefix))))
  else None

let commands : (string * (state -> string -> state)) list =
  [
    ( ":mode ",
      fun st arg ->
        (match arg with
        | "ref" | "reference" ->
          Printf.printf "mode: reference semantics\n";
          { st with mode = Engine.Reference }
        | "plan" | "planned" ->
          Printf.printf "mode: planned (Volcano)\n";
          { st with mode = Engine.Planned }
        | m ->
          Printf.printf "unknown mode: %s\n" m;
          st) );
    ( ":graph ",
      fun st arg ->
        if st.store <> None then begin
          Printf.printf
            ":graph is not available with --db (the durable graph lives in \
             the store)\n";
          st
        end
        else
          (match builtin_graph arg with
          | Some g ->
            Printf.printf "loaded graph %s (%d nodes, %d relationships)\n" arg
              (Graph.node_count g) (Graph.rel_count g);
            { st with graph = g }
          | None ->
            Printf.printf "unknown graph: %s\n" arg;
            st) );
    ( ":explain ",
      fun st arg ->
        (match st.client with
        | Some client -> run_remote_plan client "explain" arg
        | None -> (
          match Engine.explain (current_graph st) arg with
          | Ok plan -> print_string plan
          | Error e -> Printf.printf "%s\n" (Engine.error_message e)));
        st );
    ( ":profile ",
      fun st arg ->
        (match st.client with
        | Some client -> run_remote_plan client "profile" arg
        | None -> (
          match Engine.profile (current_graph st) arg with
          | Ok plan -> print_string plan
          | Error e -> Printf.printf "%s\n" (Engine.error_message e)));
        st );
    ( ":save ",
      fun st arg ->
        (match
           Out_channel.with_open_text arg (fun oc ->
               Out_channel.output_string oc (Export.to_cypher (current_graph st));
               Out_channel.output_string oc "\n")
         with
        | () -> Printf.printf "graph written to %s\n" arg
        | exception Sys_error e -> Printf.printf "%s\n" e);
        st );
    ( ":load ",
      fun st arg ->
        (match In_channel.with_open_text arg In_channel.input_all with
        | text -> run_script st text
        | exception Sys_error e ->
          Printf.printf "%s\n" e;
          st) );
    ( ":publish ",
      fun st arg ->
        Printf.printf "current graph stored in the catalog as %s\n" arg;
        { st with catalog = Mg.Catalog.add arg (current_graph st) st.catalog } );
    ( ":use ",
      fun st arg ->
        if st.store <> None then begin
          Printf.printf ":use is not available with --db\n";
          st
        end
        else
          (match Mg.Catalog.find arg st.catalog with
          | Some g ->
            Printf.printf "switched to catalog graph %s (%d nodes)\n" arg
              (Graph.node_count g);
            { st with graph = g }
          | None ->
            Printf.printf "no such graph in the catalog: %s\n" arg;
            st) );
    ( ":composed ",
      fun st arg ->
        (match In_channel.with_open_text arg In_channel.input_all with
        | text -> (
          let catalog = Mg.Catalog.add "current" (current_graph st) st.catalog in
          match Mg.run ~catalog ~default:"current" text with
          | Ok r ->
            Format.printf "%a@." Cypher_table.Table.pp r.Mg.table;
            (match r.Mg.produced with
            | Some name -> Printf.printf "projected graph: %s\n" name
            | None -> ());
            { st with catalog = r.Mg.catalog }
          | Error e ->
            Printf.printf "%s\n" (Engine.error_message e);
            st)
        | exception Sys_error e ->
          Printf.printf "%s\n" e;
          st) );
    ( ":schema ",
      fun st arg ->
        (match Schema.add_ddl arg st.schema with
        | Ok schema ->
          Printf.printf "constraint added\n";
          { st with schema }
        | Error e ->
          Printf.printf "%s\n" e;
          st) );
    ( ":materialize ",
      fun st arg ->
        let name, query =
          match String.index_opt arg ' ' with
          | Some i ->
            ( String.sub arg 0 i,
              String.trim (String.sub arg (i + 1) (String.length arg - i - 1))
            )
          | None -> (arg, "")
        in
        if name = "" || query = "" then begin
          Printf.printf "usage: :materialize <name> <query>\n";
          st
        end
        else begin
          match st.client with
          | Some client ->
            (match Client.materialize client ~name ~query with
            | Ok seq ->
              Printf.printf "view %s materialized (seq %d)\n" name seq
            | Error e -> Printf.printf "%s\n" (Client.error_message e));
            st
          | None ->
            let st, mgr = synced_ivm st in
            (match Ivm.materialize mgr ~name ~query with
            | Ok seq ->
              Printf.printf "view %s materialized (seq %d)\n" name seq
            | Error e -> Printf.printf "%s\n" (Engine.error_message e));
            st
        end );
    ( ":view ",
      fun st arg ->
        (match st.client with
        | Some client ->
          (match Client.view_read client ~name:arg with
          | Ok { Client.columns; rows; seq } ->
            print_rows columns rows;
            Printf.printf "(view at seq %d)\n" seq
          | Error e -> Printf.printf "%s\n" (Client.error_message e));
          st
        | None ->
          let st, mgr = synced_ivm st in
          (match Ivm.read mgr arg with
          | Ok (table, seq) ->
            Format.printf "%a@." Cypher_table.Table.pp table;
            Printf.printf "(view at seq %d)\n" seq
          | Error Ivm.Unknown_view -> Printf.printf "no view named %s\n" arg
          | Error (Ivm.Stale at) ->
            Printf.printf "view %s is stale (at seq %d)\n" arg at
          | Error (Ivm.Failed e) -> Printf.printf "%s\n" e);
          st) );
    ( ":unmaterialize ",
      fun st arg ->
        match st.client with
        | Some client ->
          (match Client.unmaterialize client ~name:arg with
          | Ok () -> Printf.printf "view %s dropped\n" arg
          | Error e -> Printf.printf "%s\n" (Client.error_message e));
          st
        | None ->
          let st, mgr = synced_ivm st in
          (match Ivm.unmaterialize mgr arg with
          | Ok () -> Printf.printf "view %s dropped\n" arg
          | Error e -> Printf.printf "%s\n" (Engine.error_message e));
          st );
    ( ":subscribe ",
      fun st arg ->
        (match st.client with
        | None ->
          Printf.printf ":subscribe requires a server connection (--connect)\n"
        | Some client -> (
          match Client.subscribe client ~query:arg with
          | Error e -> Printf.printf "%s\n" (Client.error_message e)
          | Ok sub ->
            Printf.printf "subscribed — press Enter to stop\n%!";
            let stop = ref false in
            while not !stop do
              (* stdin first, so the user can always break out *)
              match Unix.select [ Unix.stdin ] [] [] 0.0 with
              | _ :: _, _, _ ->
                (try ignore (input_line stdin) with End_of_file -> ());
                stop := true
              | _ ->
                if Client.delta_ready sub ~timeout_s:0.2 then (
                  match Client.next_delta sub with
                  | Ok (Some d) -> print_delta d
                  | Ok None ->
                    Printf.printf "subscription ended by the server\n";
                    stop := true
                  | Error e ->
                    Printf.printf "%s\n" (Client.error_message e);
                    stop := true)
            done;
            (match Client.unsubscribe sub with
            | Ok () -> ()
            | Error e -> Printf.printf "%s\n" (Client.error_message e))));
        st );
  ]

let handle_line st line =
  let line = String.trim line in
  if line = "" then Some st
  else if line = ":quit" || line = ":q" then None
  else if line = ":stats" then begin
    (match st.client with
    | Some client -> (
      (* remote: the server's view of the store *)
      match Client.store_health client with
      | Ok pairs ->
        print_endline "store health (remote):";
        print_stat_pairs pairs
      | Error e -> Printf.printf "%s\n" (Client.error_message e))
    | None -> (
      Format.printf "%a@." Stats.pp (Stats.collect (current_graph st));
      match st.store with
      | None -> ()
      | Some store ->
        print_endline "store health:";
        let cache = Session.cache_stats (Store.session store) in
        print_stat_pairs
          Cypher_values.Value.
            [
              ("wal_records", Int (Store.wal_records store));
              ("last_seq", Int (Store.last_seq store));
              ( "snapshot_age_s",
                match Store.snapshot_age store with
                | Some age -> Float age
                | None -> Null );
              ("plan_cache_hits", Int cache.Engine.cache_hits);
              ("plan_cache_misses", Int cache.Engine.cache_misses);
              ("plan_cache_replans", Int cache.Engine.cache_replans);
              ("plan_cache_evictions", Int cache.Engine.cache_evictions);
            ]));
    Some st
  end
  else if line = ":metrics" then begin
    (match st.client with
    | Some client -> (
      (* the server process's registry *)
      match Client.metrics client with
      | Ok pairs ->
        print_endline "metrics (remote):";
        print_stat_pairs pairs
      | Error e -> Printf.printf "%s\n" (Client.error_message e))
    | None -> print_string (Cypher_obs.Registry.expose ()));
    Some st
  end
  else if line = ":server-stats" then begin
    (match st.client with
    | None ->
      print_endline ":server-stats requires a server connection (--connect)"
    | Some client -> (
      match Client.server_stats client with
      | Ok pairs ->
        print_endline "server metrics:";
        print_stat_pairs pairs
      | Error e -> Printf.printf "%s\n" (Client.error_message e)));
    Some st
  end
  else if line = ":queries" then begin
    (match st.client with
    | Some client -> (
      match Client.query_stats client with
      | Ok { Client.columns; rows; _ } ->
        if rows = [] then print_endline "(no statements recorded yet)"
        else print_rows columns rows
      | Error e -> Printf.printf "%s\n" (Client.error_message e))
    | None ->
      let module Qstats = Cypher_obs.Qstats in
      if not (Qstats.enabled ()) then begin
        (* arm collection on first use; stats accumulate from here on *)
        Qstats.set_enabled true;
        print_endline "(statement statistics enabled; run some queries first)"
      end
      else begin
        match Qstats.snapshot () with
        | [] -> print_endline "(no statements recorded yet)"
        | stats ->
          let columns =
            [
              "fingerprint"; "query"; "calls"; "errors"; "rows"; "total_ms";
              "p50_us"; "p95_us"; "max_us";
            ]
          in
          print_rows columns
            (List.map
               (fun (s : Qstats.stat) ->
                 Cypher_values.Value.
                   [
                     String (Cypher_obs.Trace.id_to_hex s.Qstats.s_hash);
                     String s.Qstats.s_query;
                     Int s.Qstats.s_calls;
                     Int s.Qstats.s_errors;
                     Int s.Qstats.s_rows;
                     Float (float_of_int s.Qstats.s_total_us /. 1e3);
                     Int s.Qstats.s_p50_us;
                     Int s.Qstats.s_p95_us;
                     Int s.Qstats.s_max_us;
                   ])
               stats)
      end);
    Some st
  end
  else if line = ":cluster" then begin
    (match st.client with
    | Some client -> (
      match Client.cluster_health client with
      | Ok pairs ->
        print_endline "cluster health:";
        print_stat_pairs pairs
      | Error e -> Printf.printf "%s\n" (Client.error_message e))
    | None ->
      print_endline
        ":cluster requires a server connection (--connect HOST:PORT)");
    Some st
  end
  else if line = ":export" then begin
    print_endline (Export.to_cypher (current_graph st));
    Some st
  end
  else if line = ":dot" then begin
    print_string (Export.to_dot (current_graph st));
    Some st
  end
  else if line = ":constraints" then begin
    (match Schema.constraints st.schema with
    | [] -> print_endline "(no constraints)"
    | cs ->
      List.iter (fun c -> Format.printf "%a@." Schema.pp_constraint c) cs;
      match Schema.check st.schema (current_graph st) with
      | [] -> print_endline "graph conforms"
      | vs -> List.iter (fun v -> Format.printf "%a@." Schema.pp_violation v) vs);
    Some st
  end
  else if line = ":checkpoint" then begin
    (match st.store with
    | None -> print_endline ":checkpoint requires a durable database (--db PATH)"
    | Some store -> (
      match Store.checkpoint store with
      | Ok () ->
        let g = Store.graph store in
        Printf.printf
          "checkpoint written (%d nodes, %d relationships); WAL truncated\n"
          (Graph.node_count g) (Graph.rel_count g)
      | Error e -> Printf.printf "%s\n" e));
    Some st
  end
  else if line = ":graphs" then begin
    (match Mg.Catalog.names st.catalog with
    | [] -> print_endline "(catalog is empty; use :publish <name>)"
    | names -> List.iter print_endline names);
    Some st
  end
  else if line = ":views" then begin
    match st.client with
    | Some client ->
      (match Client.list_views client with
      | Ok { Client.columns; rows; _ } ->
        if rows = [] then
          print_endline "(no views; use :materialize <name> <query>)"
        else print_rows columns rows
      | Error e -> Printf.printf "%s\n" (Client.error_message e));
      Some st
    | None ->
      let st, mgr = synced_ivm st in
      (match Ivm.view_infos mgr with
      | [] -> print_endline "(no views; use :materialize <name> <query>)"
      | infos ->
        List.iter
          (fun i ->
            Printf.printf "%-16s %-11s seq=%-6d rows=%-6d refreshes=%d \
                           (%d incremental, %d fallback) subscribers=%d  %s%s\n"
              i.Ivm.vi_name
              (if i.Ivm.vi_incremental then "incremental" else "fallback")
              i.Ivm.vi_seq i.Ivm.vi_rows i.Ivm.vi_refreshes
              i.Ivm.vi_incrementals i.Ivm.vi_fallbacks i.Ivm.vi_subscribers
              i.Ivm.vi_query
              (match i.Ivm.vi_error with
              | Some e -> Printf.sprintf "  [error: %s]" e
              | None -> ""))
          infos);
      Some st
  end
  else if line = ":procedures" then begin
    List.iter print_endline (Cypher_semantics.Procedures.names ());
    Some st
  end
  else if line = ":functions" then begin
    print_endline (String.concat ", " (Cypher_semantics.Functions.names ()));
    Some st
  end
  else begin
    match
      List.find_map (fun (prefix, f) -> with_arg line prefix f st) commands
    with
    | Some st -> Some st
    | None -> Some (run_query st line)
  end

let repl st =
  Printf.printf
    "cypher shell — type Cypher, or :graph <name>, :explain <q>, :mode \
     ref|plan, :stats, :export, :dot, :load <file>, :schema <ddl>, \
     :constraints, :procedures, :functions, :materialize <name> <q>, :views, \
     :view <name>, :subscribe <q>, :queries, :cluster, :quit\n";
  let rec loop st =
    print_string "cypher> ";
    match read_line () with
    | exception End_of_file -> st
    | line -> ( match handle_line st line with Some st -> loop st | None -> st)
  in
  loop st

(* Serves the durable store until SIGINT/SIGTERM, then drains in-flight
   requests, checkpoints and closes the WAL.  With [replica_of], the
   store is first bootstrapped from the primary and a background
   applier keeps tailing its WAL; the server rejects writes. *)
let serve_forever st ?replica_of (host, port) =
  match st.store with
  | None ->
    Printf.eprintf "--serve requires a durable database (--db PATH)\n";
    exit 1
  | Some store -> (
    let config = { Server.default_config with host; port; replica_of } in
    match Server.start ~config ~schema:st.schema ~mode:st.mode store with
    | Error e ->
      Printf.eprintf "cannot start server: %s\n" e;
      exit 1
    | Ok server ->
      let replica =
        match replica_of with
        | None -> None
        | Some (phost, pport) -> (
          match
            Cypher_replication.Replica.start ~host:phost ~port:pport store
          with
          | Ok r ->
            Printf.printf "replicating from %s:%d (applied seq %d)\n%!" phost
              pport
              (Cypher_replication.Replica.last_applied r);
            Some r
          | Error e ->
            Printf.eprintf "cannot start replication: %s\n" e;
            exit 1)
      in
      let stop_requested = ref false in
      let request_stop _ = stop_requested := true in
      Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
      Printf.printf "serving %s on %s:%d, %d request domains (ctrl-C to stop)\n%!"
        (match replica with Some _ -> "replica" | None -> "database")
        host (Server.port server)
        (Server.request_domains server);
      while not !stop_requested do
        Unix.sleepf 0.2
      done;
      Printf.printf "draining connections and checkpointing...\n%!";
      Option.iter Cypher_replication.Replica.stop replica;
      (match Server.stop server with
      | Ok () -> Printf.printf "server stopped; checkpoint written\n"
      | Error e -> Printf.printf "server stopped; %s\n" e))

let () =
  let args = Array.to_list Sys.argv in
  let serve_endpoint = ref None in
  let replica_of = ref None in
  let rec parse st = function
    | [] -> `Repl st
    | "--graph" :: name :: rest -> (
      match builtin_graph name with
      | Some g -> parse { st with graph = g } rest
      | None ->
        Printf.eprintf "unknown graph: %s\n" name;
        exit 1)
    | "--mode" :: m :: rest ->
      let mode =
        match m with
        | "ref" -> Engine.Reference
        | "plan" -> Engine.Planned
        | _ ->
          Printf.eprintf "unknown mode: %s\n" m;
          exit 1
      in
      parse { st with mode } rest
    | "-q" :: q :: rest ->
      let st = run_query st q in
      parse st rest
    | "--script" :: path :: rest -> (
      match In_channel.with_open_text path In_channel.input_all with
      | text -> parse (run_script st text) rest
      | exception Sys_error e ->
        Printf.eprintf "%s\n" e;
        exit 1)
    | "--explain" :: q :: rest ->
      (match Engine.explain (current_graph st) q with
      | Ok plan -> print_string plan
      | Error e -> Printf.printf "%s\n" (Engine.error_message e));
      parse st rest
    | "--slow-query-ms" :: ms :: rest -> (
      match float_of_string_opt ms with
      | Some ms when ms >= 0. ->
        Cypher_obs.Slowlog.set_threshold_ms (Some ms);
        parse st rest
      | _ ->
        Printf.eprintf "--slow-query-ms: expected a non-negative number, got %s\n" ms;
        exit 1)
    | "--trace" :: path :: rest -> (
      match Cypher_obs.Trace.to_file path with
      | () ->
        (* flush the JSONL sink however the process exits *)
        at_exit Cypher_obs.Trace.close;
        parse st rest
      | exception Sys_error e ->
        Printf.eprintf "--trace: %s\n" e;
        exit 1)
    | "--serve" :: endpoint :: rest -> (
      match parse_endpoint endpoint with
      | Ok hp ->
        serve_endpoint := Some hp;
        parse st rest
      | Error e ->
        Printf.eprintf "--serve %s\n" e;
        exit 1)
    | "--replica-of" :: endpoint :: rest -> (
      match parse_endpoint endpoint with
      | Ok hp ->
        replica_of := Some hp;
        parse st rest
      | Error e ->
        Printf.eprintf "--replica-of %s\n" e;
        exit 1)
    | "--connect" :: endpoint :: rest -> (
      match parse_endpoint endpoint with
      | Error e ->
        Printf.eprintf "--connect %s\n" e;
        exit 1
      | Ok (host, port) -> (
        match Client.connect ~host ~port () with
        | Ok client ->
          Printf.printf "connected to %s:%d\n" host port;
          parse { st with client = Some client } rest
        | Error e ->
          Printf.eprintf "%s\n" e;
          exit 1))
    | "--db" :: path :: rest -> (
      match Store.open_ ~mode:st.mode path with
      | Ok store ->
        let g = Store.graph store in
        Printf.printf
          "opened database %s (%d nodes, %d relationships, %d WAL change \
           records applied)\n"
          path (Graph.node_count g) (Graph.rel_count g)
          (Store.wal_records store);
        parse { st with store = Some store } rest
      | Error e ->
        Printf.eprintf "cannot open database %s: %s\n" path e;
        exit 1)
    | arg :: _ ->
      Printf.eprintf "unknown argument: %s\n" arg;
      exit 1
  in
  let st =
    {
      graph = Graph.empty;
      mode = Engine.Planned;
      schema = Schema.empty;
      catalog = Mg.Catalog.empty;
      store = None;
      client = None;
      ivm = None;
    }
  in
  let finish st =
    Option.iter (fun (mgr, _) -> Ivm.shutdown mgr) st.ivm;
    Option.iter Client.close st.client;
    Option.iter Store.close st.store
  in
  match parse st (List.tl args) with
  | `Repl st -> (
    match !serve_endpoint with
    | Some endpoint ->
      (* Server.stop closes the store itself *)
      Option.iter Client.close st.client;
      serve_forever st ?replica_of:!replica_of endpoint
    | None ->
      if
        List.exists
          (fun a -> a = "-q" || a = "--explain" || a = "--script")
          args
      then finish st
      else begin
        let st = repl st in
        finish st
      end)

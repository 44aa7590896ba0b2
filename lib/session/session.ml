open Cypher_graph
module Schema = Cypher_schema.Schema
module Config = Cypher_semantics.Config

type commit = {
  c_base : Graph.t;
  c_graph : Graph.t;
  c_delta : Graph.delta option;
  c_traces : int list;
}

type t = {
  mutable current : Graph.t;
  (* open transactions, innermost first: the graph and the traces each
     one began with, restored by its rollback *)
  mutable snapshots : (Graph.t * int list) list;
  (* trace ids of the updates since the outermost transaction began,
     newest first, each once *)
  mutable traces : int list;
  mutable config : Config.t;
  schema : Schema.t;
  mode : Cypher_engine.Engine.mode;
  cache : Cypher_engine.Engine.plan_cache;
  on_commit : (commit -> unit) option;
}

let create ?(schema = Schema.empty) ?(params = [])
    ?(mode = Cypher_engine.Engine.Planned) ?on_commit g =
  {
    current = g;
    snapshots = [];
    traces = [];
    config = Config.with_params params Config.default;
    schema;
    mode;
    cache = Cypher_engine.Engine.create_plan_cache ();
    on_commit;
  }

let graph t = t.current

(* Re-bases the session on [g] — the server uses this to sync a
   connection's view to the latest committed graph before each request.
   Refused mid-transaction: the open snapshot stack refers to the old
   base. *)
let set_graph t g =
  if t.snapshots <> [] then
    invalid_arg "Session.set_graph: a transaction is open";
  t.current <- g

let plan_cache t = t.cache
let set_params t params = t.config <- Config.with_params params t.config
let in_transaction t = t.snapshots <> []
let depth t = List.length t.snapshots

let validate t g ~outcome =
  match Schema.check t.schema g with
  | [] -> Ok ()
  | v :: _ ->
    Error
      (Cypher_engine.Engine.Runtime_error
         (Format.asprintf "schema violation: %a (%s)" Schema.pp_violation v
            outcome))

let cache_stats t = Cypher_engine.Engine.cache_stats t.cache

(* One call per durable commit: the graph span it covers and the traces
   of its updates.  The delta is computed here — once, over the whole
   span — so nested transactions merged into the outer frame yield
   exactly one coalesced delta set, and rolled-back inner effects (which
   exist only in discarded graph values) never surface.  An update
   always stamps a fresh version (the counter is global and monotonic),
   so an unchanged version means nothing was updated. *)
let emit t ~base traces =
  match t.on_commit with
  | Some f when Graph.version t.current <> Graph.version base ->
    f
      {
        c_base = base;
        c_graph = t.current;
        c_delta = Graph.delta_between ~since:base t.current;
        c_traces = List.rev traces;
      }
  | _ -> ()

let run t text =
  match
    Cypher_engine.Engine.query_cached ~cache:t.cache ~config:t.config
      ~mode:t.mode t.current text
  with
  | Error e -> Error e
  | Ok outcome ->
    let g = outcome.Cypher_engine.Engine.graph in
    (* captured on the executing thread, where a server installs the
       remote caller's context — commit lineage starts here *)
    let traces =
      let trace = Cypher_obs.Trace.current_trace_id () in
      if trace = 0 || Graph.version g = Graph.version t.current
         || List.mem trace t.traces
      then t.traces
      else trace :: t.traces
    in
    if in_transaction t then begin
      (* deferred validation: the schema is checked at commit *)
      t.current <- g;
      t.traces <- traces;
      Ok outcome.Cypher_engine.Engine.table
    end
    else begin
      match validate t g ~outcome:"statement rejected" with
      | Ok () ->
        let base = t.current in
        t.current <- g;
        emit t ~base traces;
        Ok outcome.Cypher_engine.Engine.table
      | Error _ as e -> e
    end

let begin_tx t = t.snapshots <- (t.current, t.traces) :: t.snapshots

let no_transaction =
  Error (Cypher_engine.Engine.Runtime_error "no open transaction")

let commit t =
  match t.snapshots with
  | [] -> no_transaction
  | [ (outermost, _) ] -> (
    let traces = t.traces in
    t.snapshots <- [];
    t.traces <- [];
    match validate t t.current ~outcome:"transaction rolled back" with
    | Ok () ->
      emit t ~base:outermost traces;
      Ok ()
    | Error _ as e ->
      t.current <- outermost;
      e)
  | _ :: rest ->
    (* inner commit: its effects and traces become the enclosing
       transaction's *)
    t.snapshots <- rest;
    Ok ()

let rollback t =
  match t.snapshots with
  | [] -> no_transaction
  | (snapshot, traces) :: rest ->
    t.current <- snapshot;
    t.traces <- traces;
    t.snapshots <- rest;
    Ok ()

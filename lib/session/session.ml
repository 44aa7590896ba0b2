open Cypher_graph
module Schema = Cypher_schema.Schema
module Config = Cypher_semantics.Config

type logged = {
  lg_text : string;
  lg_params : (string * Cypher_values.Value.t) list;
  lg_trace : int;
}

type commit = {
  c_batch : logged list;
  c_base : Graph.t;
  c_graph : Graph.t;
  c_delta : Graph.delta option;
}

type t = {
  mutable current : Graph.t;
  mutable snapshots : Graph.t list; (* innermost first *)
  (* update statements of each open transaction, one frame per snapshot,
     newest statement first within a frame *)
  mutable pending : logged list list;
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
    pending = [];
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

(* One call per durable commit: the batch in execution order, plus the
   graph span it covers.  The delta is computed here — once, over the
   whole span — so nested transactions merged into the outer frame yield
   exactly one coalesced delta set, and rolled-back inner effects (which
   exist only in discarded graph values) never surface. *)
let emit t ~base batch =
  match t.on_commit with
  | Some f when batch <> [] ->
    f
      {
        c_batch = batch;
        c_base = base;
        c_graph = t.current;
        c_delta = Graph.delta_between ~since:base t.current;
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
    (* An update always stamps a fresh version (the counter is global and
       monotonic), so version equality means the statement was read-only
       and need not reach the write-ahead log. *)
    let updated = Graph.version g <> Graph.version t.current in
    let logged () =
      {
        lg_text = text;
        lg_params = Cypher_values.Value.Smap.bindings t.config.Config.params;
        (* captured on the executing thread, where a server installs the
           remote caller's context — commit lineage starts here *)
        lg_trace = Cypher_obs.Trace.current_trace_id ();
      }
    in
    if in_transaction t then begin
      (* deferred validation: the schema is checked at commit *)
      t.current <- g;
      if updated then
        t.pending <-
          (match t.pending with
          | frame :: rest -> (logged () :: frame) :: rest
          | [] -> assert false);
      Ok outcome.Cypher_engine.Engine.table
    end
    else begin
      match validate t g ~outcome:"statement rejected" with
      | Ok () ->
        let base = t.current in
        t.current <- g;
        if updated then emit t ~base [ logged () ];
        Ok outcome.Cypher_engine.Engine.table
      | Error _ as e -> e
    end

let begin_tx t =
  t.snapshots <- t.current :: t.snapshots;
  t.pending <- [] :: t.pending

let no_transaction =
  Error (Cypher_engine.Engine.Runtime_error "no open transaction")

let commit t =
  match (t.snapshots, t.pending) with
  | [], _ -> no_transaction
  | [ outermost ], frames -> (
    let batch = match frames with f :: _ -> f | [] -> [] in
    match validate t t.current ~outcome:"transaction rolled back" with
    | Ok () ->
      t.snapshots <- [];
      t.pending <- [];
      emit t ~base:outermost (List.rev batch);
      Ok ()
    | Error _ as e ->
      t.current <- outermost;
      t.snapshots <- [];
      t.pending <- [];
      e)
  | _ :: rest, inner :: outer :: frames ->
    (* inner commit: effects — and their log records — become part of the
       enclosing transaction *)
    t.snapshots <- rest;
    t.pending <- (inner @ outer) :: frames;
    Ok ()
  | _ :: rest, _ ->
    t.snapshots <- rest;
    Ok ()

let rollback t =
  match t.snapshots with
  | [] -> no_transaction
  | snapshot :: rest ->
    t.current <- snapshot;
    t.snapshots <- rest;
    t.pending <- (match t.pending with _ :: frames -> frames | [] -> []);
    Ok ()

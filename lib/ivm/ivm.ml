(* Incremental view maintenance: materialized results of read-only
   Cypher queries kept up to date as commits land, following the delta
   evaluation programme of "Formalising openCypher Graph Queries in
   Relational Algebra" (Marton/Szárnyas/Varró).

   A query inside the supported fragment — a single non-optional MATCH
   of one rigid path, an optional WHERE, and a RETURN of scalar
   expressions and/or count/sum/avg/min/max aggregates — keeps only
   what it shows: its output bag, or for an aggregate its groups' row
   counts and value multisets, so group rows are re-finalized — with
   the engine's own {!Agg.finalize} — without rescanning the group.
   The view is Q(G), and the fragment's expressions read only the
   entities a pattern assignment binds, so a commit from G to G'
   changes only the assignments that bind a touched entity (from the
   {!Graph} change journal): the refresh is Q_T(G') - Q_T(G), read from
   the two published versions in O(changes).  The same planned
   MATCH ... WHERE finds them with one input replaced by the change —
   one seed program per pattern position, compiled by the planner at
   registration, started from that position bound and run over the
   touched entities as its Argument rows: in G from the removed and
   changed ones, whose assignments are taken away, and in G' from the
   added and changed ones, whose assignments are contributed.  The rows
   a run produces for an assignment are the engine's own multiplicity.
   The initial build and every full rebuild stream the unseeded match,
   planned against the graph they read, into the state.

   Queries outside the fragment (variable-length expands, ORDER BY,
   WITH pipelines, ...) degrade to full re-execution on the pinned
   published snapshot: always correct, never incremental.  Any
   inconsistency detected during incremental application (including a
   failed self-check at registration) also falls back — wrong answers
   are never served.

   Consistency model: each view carries the WAL sequence number of the
   commit its contents reflect.  Reads are served from the last
   refreshed result under a short mutex; refresh is asynchronous to
   commit acknowledgement (a write's effects appear in views shortly
   after its fsync, in commit order, never partially). *)

module Value = Cypher_values.Value
module Ids = Cypher_values.Ids
module Graph = Cypher_graph.Graph
module Record = Cypher_table.Record
module Table = Cypher_table.Table
module Ast = Cypher_ast.Ast
module Pretty = Cypher_ast.Pretty
module Config = Cypher_semantics.Config
module Eval = Cypher_semantics.Eval
module Agg = Cypher_semantics.Agg
module Build = Cypher_planner.Build
module Exec = Cypher_planner.Exec
module Stats = Cypher_graph.Stats
module Engine = Cypher_engine.Engine
module Store = Cypher_storage.Store
module Registry = Cypher_obs.Registry

(* --- metrics ----------------------------------------------------------- *)

let m_refreshes =
  Registry.counter ~help:"view refreshes (any kind)" "cypher_view_refresh_total"

let m_incremental =
  Registry.counter ~help:"view refreshes applied incrementally"
    "cypher_view_refresh_incremental_total"

let m_fallback =
  Registry.counter
    ~help:"view refreshes that fell back to full re-execution"
    "cypher_view_refresh_fallback_total"

let m_refresh_us =
  Registry.histogram ~help:"per-view refresh latency"
    "cypher_view_refresh_us"

let m_delta_entities =
  Registry.counter ~help:"graph entities in deltas consumed by view refreshes"
    "cypher_view_delta_entities_total"

let m_delta_rows =
  Registry.counter ~help:"result rows added or removed across view refreshes"
    "cypher_view_delta_rows_total"

let m_views = Registry.gauge ~help:"registered materialized views" "cypher_views"

let m_subscribers =
  Registry.gauge ~help:"active view subscriptions" "cypher_view_subscribers"

let m_pushes =
  Registry.counter ~help:"delta frames queued to subscribers"
    "cypher_view_push_total"

(* --- value-vector maps ------------------------------------------------- *)

module Vlist = struct
  type t = Value.t list

  let compare a b =
    let rec go a b =
      match (a, b) with
      | [], [] -> 0
      | [], _ -> -1
      | _, [] -> 1
      | x :: xs, y :: ys ->
        let c = Value.compare_total x y in
        if c <> 0 then c else go xs ys
    in
    go a b
end

module Vlmap = Map.Make (Vlist)

module Vmap = Map.Make (struct
  type t = Value.t

  let compare = Value.compare_total
end)

(* row -> positive multiplicity *)
type bag = int Vlmap.t

(* [bag] with the (row, multiplicity change) [events] applied *)
let apply_events bag events =
  List.fold_left
    (fun m (row, d) ->
      Vlmap.update row
        (fun o ->
          match Option.value o ~default:0 + d with 0 -> None | v -> Some v)
        m)
    bag events

let bag_of_events = apply_events Vlmap.empty

(* an engine result's rows, in its (sorted) field order *)
let bag_of_table tbl =
  bag_of_events
    (Table.fold_left
       (fun acc r -> (List.map snd (Record.to_list r), 1) :: acc)
       [] tbl)

(* (new - old) as events *)
let bag_diff ~old_bag ~new_bag =
  Vlmap.bindings
    (Vlmap.union
       (fun _ n o -> match n + o with 0 -> None | d -> Some d)
       new_bag
       (Vlmap.map (fun m -> -m) old_bag))

(* --- the compiled fragment --------------------------------------------- *)

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* Expressions a maintained view may evaluate: deterministic, readable
   from the bound entities alone.  Pattern subexpressions reach the
   graph beyond the binding; degree-style functions depend on adjacency
   that changes without touching the node — both force fallback. *)
let rec check_expr (e : Ast.expr) =
  match e with
  | Ast.E_lit _ | E_var _ -> ()
  | E_param _ -> unsupported "parameters"
  | E_prop (e, _) -> check_expr e
  | E_map kvs -> List.iter (fun (_, e) -> check_expr e) kvs
  | E_list es -> List.iter check_expr es
  | E_in (a, b)
  | E_index (a, b)
  | E_starts_with (a, b)
  | E_ends_with (a, b)
  | E_contains (a, b)
  | E_regex_match (a, b)
  | E_or (a, b)
  | E_and (a, b)
  | E_xor (a, b)
  | E_cmp (_, a, b)
  | E_arith (_, a, b) ->
    check_expr a;
    check_expr b
  | E_slice (a, b, c) ->
    check_expr a;
    Option.iter check_expr b;
    Option.iter check_expr c
  | E_not a | E_is_null a | E_is_not_null a | E_neg a | E_has_labels (a, _) ->
    check_expr a
  | E_fn (name, args) ->
    (match String.lowercase_ascii name with
    | "degree" | "indegree" | "outdegree" ->
      unsupported "function %s() depends on non-local graph state" name
    | _ -> ());
    List.iter check_expr args
  | E_count_star | E_agg _ | E_agg_percentile _ ->
    unsupported "aggregate in this position"
  | E_case { case_subject; case_branches; case_default } ->
    Option.iter check_expr case_subject;
    List.iter
      (fun (a, b) ->
        check_expr a;
        check_expr b)
      case_branches;
    Option.iter check_expr case_default
  | E_list_comp { lc_source; lc_where; lc_body; _ } ->
    check_expr lc_source;
    Option.iter check_expr lc_where;
    Option.iter check_expr lc_body
  | E_pattern_pred _ | E_pattern_comp _ | E_exists_pattern _ ->
    unsupported "pattern subexpression"
  | E_map_projection (e, items) ->
    check_expr e;
    List.iter
      (function Ast.Mp_literal (_, e) -> check_expr e | _ -> ())
      items
  | E_quantified (_, _, src, p) ->
    check_expr src;
    check_expr p
  | E_reduce { rd_init; rd_list; rd_body; _ } ->
    check_expr rd_init;
    check_expr rd_list;
    check_expr rd_body

type item = Key of Ast.expr | Agg_item of Agg.spec

type plan = {
  p_match : Ast.clause list;  (* the MATCH ... WHERE, every element named *)
  p_names : string array;  (* position -> name; even = node, odd = rel *)
  p_dirs : Ast.direction array;  (* per relationship, as written *)
  p_seeds : Exec.program array;
      (* per position, the match with that position bound: a node
         position binds its node, a relationship position the
         relationship and its left node *)
  p_items : (string * item) array;  (* sorted by column name *)
  p_specs : Agg.spec array;  (* the Agg_items, in p_items order *)
  p_distinct : bool;  (* DISTINCT over a non-aggregating projection *)
  p_grouping : bool;
  p_has_keys : bool;  (* grouping with at least one non-aggregate item *)
}

let check_pattern (pp : Ast.path_pattern) =
  if pp.Ast.pp_name <> None then unsupported "named paths";
  if pp.Ast.pp_shortest <> Ast.No_shortest then unsupported "shortestPath";
  if pp.Ast.pp_restr <> Ast.Walk then unsupported "path restrictor";
  let check_props props =
    List.iter
      (fun (_, e) ->
        check_expr e;
        if Ast.expr_free_vars e <> [] then
          unsupported "pattern property referencing a variable")
      props
  in
  check_props pp.Ast.pp_first.Ast.np_props;
  List.iter
    (fun ((rp : Ast.rel_pattern), (np : Ast.node_pattern)) ->
      if rp.Ast.rp_len <> None then
        unsupported "variable-length relationships";
      if rp.Ast.rp_regex <> None then unsupported "type regex";
      check_props rp.Ast.rp_props;
      check_props np.Ast.np_props)
    pp.Ast.pp_rest

(* Gives every pattern element a name (anonymous ones get fresh "#ivm"
   names, invisible to user queries) so an assignment is a full
   entity-id vector — the tuple key. *)
let name_pattern (pp : Ast.path_pattern) =
  let used = Hashtbl.create 8 in
  let note = function Some n -> Hashtbl.replace used n () | None -> () in
  note pp.Ast.pp_first.Ast.np_name;
  List.iter
    (fun ((rp : Ast.rel_pattern), (np : Ast.node_pattern)) ->
      note rp.Ast.rp_name;
      note np.Ast.np_name)
    pp.Ast.pp_rest;
  let ctr = ref 0 in
  let rec fresh () =
    incr ctr;
    let n = Printf.sprintf "#ivm%d" !ctr in
    if Hashtbl.mem used n then fresh ()
    else begin
      Hashtbl.replace used n ();
      n
    end
  in
  let name_node (np : Ast.node_pattern) =
    match np.Ast.np_name with
    | Some n -> (np, n)
    | None ->
      let n = fresh () in
      ({ np with Ast.np_name = Some n }, n)
  in
  let name_rel (rp : Ast.rel_pattern) =
    match rp.Ast.rp_name with
    | Some n -> (rp, n)
    | None ->
      let n = fresh () in
      ({ rp with Ast.rp_name = Some n }, n)
  in
  let first, n0 = name_node pp.Ast.pp_first in
  let rest_rev, names_rev =
    List.fold_left
      (fun (acc, ns) (rp, np) ->
        let rp, rn = name_rel rp in
        let np, nn = name_node np in
        ((rp, np) :: acc, nn :: rn :: ns))
      ([], [ n0 ])
      pp.Ast.pp_rest
  in
  ( { pp with Ast.pp_first = first; pp_rest = List.rev rest_rev },
    Array.of_list (List.rev names_rev) )

let is_synthetic n = String.length n > 0 && n.[0] = '#'

let compile (q : Ast.query) : plan =
  match q with
  | Ast.Q_single
      {
        sq_clauses = [ Ast.C_match { opt = false; pattern = [ pp ]; where } ];
        sq_return = Some proj;
      } ->
    if proj.Ast.pj_order_by <> [] then unsupported "ORDER BY";
    if proj.Ast.pj_skip <> None || proj.Ast.pj_limit <> None then
      unsupported "SKIP/LIMIT";
    check_pattern pp;
    Option.iter check_expr where;
    let pp, names = name_pattern pp in
    let star_items =
      if not proj.Ast.pj_star then []
      else
        (* the engine expands * to the match table's fields — the
           user-named pattern variables, sorted *)
        Array.to_list names
        |> List.filter (fun n -> not (is_synthetic n))
        |> List.sort_uniq String.compare
        |> List.map (fun n ->
               { Ast.ri_expr = Ast.E_var n; ri_alias = Some n })
    in
    let ret_items = star_items @ proj.Ast.pj_items in
    if ret_items = [] then unsupported "empty projection";
    let items =
      List.map
        (fun ({ Ast.ri_expr = e; ri_alias } as ri) ->
          let name =
            match ri_alias with
            | Some a -> a
            | None -> Pretty.expr_to_string ri.Ast.ri_expr
          in
          if Agg.contains_aggregate e then
            match Agg.extract_aggregates e with
            | Ast.E_var v, [ (v', spec) ] when String.equal v v' -> (
              match spec with
              | `Count_star -> (name, Agg_item spec)
              | `Agg ((Ast.Count | Sum | Avg | Min | Max), _, arg) ->
                check_expr arg;
                (name, Agg_item spec)
              | `Agg _ ->
                unsupported "order-sensitive aggregate (collect/stdev)"
              | `Percentile _ -> unsupported "percentile aggregates")
            | _ -> unsupported "aggregate inside a larger expression"
          else begin
            check_expr e;
            (name, Key e)
          end)
        ret_items
    in
    let sorted =
      List.sort (fun (a, _) (b, _) -> String.compare a b) items
    in
    let rec dup = function
      | (a, _) :: (b, _) :: _ when String.equal a b ->
        unsupported "duplicate column %s" a
      | _ :: rest -> dup rest
      | [] -> ()
    in
    dup sorted;
    let grouping =
      List.exists (function _, Agg_item _ -> true | _ -> false) sorted
    in
    let has_keys =
      grouping && List.exists (function _, Key _ -> true | _ -> false) sorted
    in
    let specs =
      List.filter_map
        (function _, Agg_item s -> Some s | _, Key _ -> None)
        sorted
    in
    let p_match = [ Ast.C_match { opt = false; pattern = [ pp ]; where } ] in
    (* a seeded program starts at its bound node, so the estimates the
       planner is given never choose its plan *)
    let seed pos =
      let bound =
        if pos mod 2 = 0 then [ names.(pos) ]
        else [ names.(pos); names.(pos - 1) ]
      in
      (Build.compile_clauses ~stats:(Stats.collect Graph.empty) ~visible:bound
         p_match None)
        .Build.prog
    in
    {
      p_match;
      p_names = names;
      p_dirs =
        Array.of_list
          (List.map
             (fun ((rp : Ast.rel_pattern), _) -> rp.Ast.rp_dir)
             pp.Ast.pp_rest);
      p_seeds = Array.init (Array.length names) seed;
      p_items = Array.of_list sorted;
      p_specs = Array.of_list specs;
      p_distinct = proj.Ast.pj_distinct && not grouping;
      p_grouping = grouping;
      p_has_keys = has_keys;
    }
  | _ ->
    unsupported
      "only single-MATCH `MATCH ... [WHERE ...] RETURN ...` queries are \
       maintained incrementally"

let columns_of plan = Array.to_list (Array.map fst plan.p_items)

(* An assignment's key: its entity ids, a node's tagged even and a
   relationship's odd. *)
let key_of plan bnd =
  Array.map
    (fun name ->
      match Record.find bnd name with
      | Some (Value.Node n) -> Ids.node_to_int n lsl 1
      | Some (Value.Rel r) -> (Ids.rel_to_int r lsl 1) lor 1
      | _ -> failwith "ivm: a pattern position bound no entity")
    plan.p_names

(* --- maintained state --------------------------------------------------- *)

(* What a view shows, and nothing more: an aggregating view keeps its
   groups' counts and value multisets and their output rows; any other
   view's state is its output bag ([v_out]). *)
type group = { mutable g_count : int; g_accs : int Vmap.t ref array }

type istate = {
  plan : plan;
  mutable groups : group Vlmap.t;
  mutable gout : Value.t list Vlmap.t;  (* group key -> current output row *)
}

type state =
  | Incremental of istate
  | Fallback of string  (* why the query is outside the fragment *)

type view = {
  v_name : string;
  v_query : string;
  mutable v_state : state;
  v_columns : string list;  (* sorted *)
  mutable v_out : bag;  (* result rows (sorted-column order) -> mult *)
  mutable v_table : Table.t option;  (* cache, rebuilt on demand *)
  mutable v_seq : int;
  mutable v_refreshes : int;
  mutable v_incrementals : int;
  mutable v_fallbacks : int;
  mutable v_error : string option;
  v_auto : bool;  (* subscription-owned; dropped with its last subscriber *)
}

let fresh_group plan =
  { g_count = 0; g_accs = Array.map (fun _ -> ref Vmap.empty) plan.p_specs }

let new_istate plan =
  let st = { plan; groups = Vlmap.empty; gout = Vlmap.empty } in
  (* a global aggregate (no grouping keys) emits one row even over an
     empty input: the group exists from the start *)
  if plan.p_grouping && not plan.p_has_keys then
    st.groups <- Vlmap.add [] (fresh_group plan) st.groups;
  st

(* [m + d] as a stored multiplicity: zero drops the entry; below zero
   the maintained state is not what the graph implies. *)
let bump m d =
  match m + d with
  | 0 -> None
  | n when n < 0 -> failwith "ivm: negative multiplicity in a group"
  | n -> Some n

(* Contributes [count] copies of the assignment [bnd] (negative: takes
   them away), its items read in [g]: to its group's count and value
   multisets when the view aggregates, else as a row event.  [dirty]
   collects the group keys whose output row must be re-finalized at the
   end of the batch. *)
let contribute cfg g st dirty events bnd count =
  let plan = st.plan in
  let eval e = Eval.eval_expr cfg g bnd e in
  let gkey =
    Array.fold_left
      (fun acc (_, item) ->
        match item with Key e -> eval e :: acc | Agg_item _ -> acc)
      [] plan.p_items
    |> List.rev
  in
  if not plan.p_grouping then events := (gkey, count) :: !events
  else begin
    let gr =
      match Vlmap.find_opt gkey st.groups with
      | Some gr -> gr
      | None ->
        let gr = fresh_group plan in
        st.groups <- Vlmap.add gkey gr st.groups;
        gr
    in
    gr.g_count <- Option.value (bump gr.g_count count) ~default:0;
    Array.iteri
      (fun i spec ->
        match spec with
        | `Agg (_, _, arg) ->
          let v = eval arg in
          if not (Value.is_null v) then
            gr.g_accs.(i) :=
              Vmap.update v
                (fun o -> bump (Option.value o ~default:0) count)
                !(gr.g_accs.(i))
        | `Count_star | `Percentile _ -> ())
      plan.p_specs;
    if gr.g_count = 0 && plan.p_has_keys then
      st.groups <- Vlmap.remove gkey st.groups;
    dirty := Vlmap.add gkey () !dirty
  end

(* Re-finalizes every dirty group with the engine's own [Agg.finalize],
   expanding each maintained value multiset in canonical ascending
   order, and emits the row transitions. *)
let finalize_groups st dirty events =
  let row gkey gr =
    let row, _, _ =
      Array.fold_left
        (fun (row, keys, i) (_, item) ->
          match (item, keys) with
          | Key _, v :: keys -> (v :: row, keys, i)
          | Key _, [] -> assert false
          | Agg_item spec, _ ->
            let values =
              List.concat_map
                (fun (v, m) -> List.init m (fun _ -> v))
                (Vmap.bindings !(gr.g_accs.(i)))
            in
            let v =
              Agg.finalize ~percentile:None ~row_count:gr.g_count values spec
            in
            (v :: row, keys, i + 1))
        ([], gkey, 0) st.plan.p_items
    in
    List.rev row
  in
  Vlmap.iter
    (fun gkey () ->
      let old_row = Vlmap.find_opt gkey st.gout in
      let new_row = Option.map (row gkey) (Vlmap.find_opt gkey st.groups) in
      match (old_row, new_row) with
      | Some o, Some n when Vlist.compare o n = 0 -> ()
      | _ ->
        Option.iter (fun r -> events := (r, -1) :: !events) old_row;
        Option.iter (fun r -> events := (r, 1) :: !events) new_row;
        st.gout <- Vlmap.update gkey (fun _ -> new_row) st.gout)
    dirty

(* Runs [prog] over the Argument rows [args] in [g] and adds every
   assignment it finds to [found], keyed, with the number of rows this
   run produced for it: the engine's own multiplicity.  A key an earlier
   run already found keeps that run's count. *)
let collect_candidates cfg g plan prog args found =
  let run = Hashtbl.create 64 in
  Seq.iter
    (fun bnd ->
      let key = key_of plan bnd in
      let m =
        match Hashtbl.find_opt run key with Some (m, _) -> m | None -> 0
      in
      Hashtbl.replace run key (m + 1, bnd))
    (Exec.rows cfg g prog args);
  Hashtbl.iter
    (fun key v -> if not (Hashtbl.mem found key) then Hashtbl.replace found key v)
    run

(* The full build: the match planned against the graph it runs on, its
   rows streamed straight into the state. *)
let init_istate cfg g plan =
  let st = new_istate plan in
  let dirty = ref Vlmap.empty in
  let events = ref [] in
  let { Build.prog; _ } =
    Build.compile_clauses ~stats:(Stats.collect g) ~visible:[] plan.p_match None
  in
  Seq.iter
    (fun bnd -> contribute cfg g st dirty events bnd 1)
    (Exec.rows cfg g prog (Seq.return Record.empty));
  if plan.p_grouping then finalize_groups st !dirty events;
  (st, !events)

(* The Argument rows of seed position [pos] for the touched nodes and
   relationships: a node position binds each node; a relationship
   position binds each relationship with its left node, at every end the
   written direction allows. *)
let seed_rows plan g pos ~nodes ~rels =
  let name = plan.p_names.(pos) in
  if pos mod 2 = 0 then
    List.map (fun n -> Record.of_list [ (name, Value.Node n) ]) nodes
  else
    let left = plan.p_names.(pos - 1) in
    List.concat_map
      (fun r ->
        let s = Graph.src g r and t = Graph.tgt g r in
        let anchors =
          match plan.p_dirs.(pos / 2) with
          | Ast.Left_to_right -> [ s ]
          | Ast.Right_to_left -> [ t ]
          | Ast.Undirected -> if Ids.equal_node s t then [ s ] else [ s; t ]
        in
        List.map
          (fun a -> Record.of_list [ (name, Value.Rel r); (left, Value.Node a) ])
          anchors)
      rels

(* Contributes every assignment of [g] that binds one of [nodes] or
   [rels], [sign] times its multiplicity: each position's seeded program
   runs once over the entities that can occupy it. *)
let contribute_touched cfg g st dirty events ~sign ~nodes ~rels =
  (* distinct: a repeated Argument row would count its assignments twice *)
  let nodes = List.sort_uniq Ids.compare_node nodes
  and rels = List.sort_uniq Ids.compare_rel rels in
  let found = Hashtbl.create 64 in
  Array.iteri
    (fun pos prog ->
      match seed_rows st.plan g pos ~nodes ~rels with
      | [] -> ()
      | args -> collect_candidates cfg g st.plan prog (List.to_seq args) found)
    st.plan.p_seeds;
  Hashtbl.iter
    (fun _ (m, bnd) -> contribute cfg g st dirty events bnd (sign * m))
    found

(* The incremental step: Q(new_g) - Q(old_g), read off the assignments
   that bind a touched entity.  Every other assignment reads the same in
   both versions, since the fragment's expressions read only the bound
   entities.  The assignments of the removed and changed entities are
   taken away as [old_g] reads them, then those of the added and changed
   entities are contributed as [new_g] reads them. *)
let apply_delta cfg ~old_g ~new_g st (d : Graph.delta) =
  let dirty = ref Vlmap.empty in
  let events = ref [] in
  contribute_touched cfg old_g st dirty events ~sign:(-1)
    ~nodes:(d.Graph.d_nodes_removed @ d.Graph.d_nodes_changed)
    ~rels:(d.Graph.d_rels_removed @ d.Graph.d_rels_changed);
  contribute_touched cfg new_g st dirty events ~sign:1
    ~nodes:(d.Graph.d_nodes_added @ d.Graph.d_nodes_changed)
    ~rels:(d.Graph.d_rels_added @ d.Graph.d_rels_changed);
  if st.plan.p_grouping then finalize_groups st !dirty events;
  !events

(* --- the manager -------------------------------------------------------- *)

type frame = {
  f_view : string;
  f_seq : int;
  f_columns : string list;  (* sorted *)
  f_init : bool;  (* the subscription's opening full-state frame *)
  f_added : (Value.t list * int) list;  (* row (sorted-column order), mult *)
  f_removed : (Value.t list * int) list;
  f_trace : int;
      (* trace id of the write whose refresh produced the frame; 0 for
         init frames and untraced writes *)
}

type subscription = {
  s_id : int;
  s_view : string;
  s_frames : frame Queue.t;
  mutable s_closed : bool;
}

type t = {
  mm : Mutex.t;
  cv : Condition.t;
  views : (string, view) Hashtbl.t;
  mutable creating : string list;
  mutable subs : subscription list;
  mutable next_sub : int;
  mutable target : (Graph.t * int * int) option;
      (* newest published, unrefreshed: graph, seq, publishing trace id *)
  mutable last : Graph.t;  (* the frontier every registered view reflects *)
  mutable last_seq : int;
  mutable busy : bool;  (* a refresh cycle is in flight *)
  mutable stopping : bool;
  mutable timed : int;  (* waiters with a deadline: the ticker runs *)
  mutable threads : Thread.t list;  (* the refresh loop and the ticker *)
  mutable source : Store.t option;  (* to detach the publish hook *)
  cfg : Config.t;
  mode : Engine.mode;
}

(* Slow subscribers are disconnected rather than buffered without bound:
   a queue past this depth closes the subscription. *)
let max_queue = 1024

type view_info = {
  vi_name : string;
  vi_query : string;
  vi_seq : int;
  vi_rows : int;
  vi_incremental : bool;
  vi_refreshes : int;
  vi_incrementals : int;
  vi_fallbacks : int;
  vi_subscribers : int;
  vi_error : string option;
}

(* --- refresh machinery -------------------------------------------------- *)

let row_record columns row =
  Record.of_list (List.combine columns row)

(* A DISTINCT view keeps raw multiplicities internally; what it shows
   is the collapsed bag. *)
let distinct view =
  match view.v_state with
  | Incremental st -> st.plan.p_distinct
  | Fallback _ -> false

let build_table view =
  match view.v_table with
  | Some tbl -> tbl
  | None ->
    let rows =
      Vlmap.fold
        (fun row m acc ->
          let r = row_record view.v_columns row in
          let n = if distinct view then 1 else m in
          let rec rep k acc = if k = 0 then acc else rep (k - 1) (r :: acc) in
          rep n acc)
        view.v_out []
    in
    let tbl = Table.create ~fields:view.v_columns (List.rev rows) in
    view.v_table <- Some tbl;
    tbl

(* Computes one view's refresh against the new graph, entirely outside
   the manager mutex; returns what to publish.  Never raises. *)
type refresh_result = {
  r_out : bag;
  r_table : Table.t option;  (* ready-made table (fallback), or None *)
  r_added : (Value.t list * int) list;
  r_removed : (Value.t list * int) list;
  r_incremental : bool;
  r_error : string option;
}

let refresh_result ?table ?error ~incremental out (added, removed) =
  {
    r_out = out;
    r_table = table;
    r_added = added;
    r_removed = removed;
    r_incremental = incremental;
    r_error = error;
  }

let visible_deltas view net =
  let added = ref [] and removed = ref [] in
  let distinct = distinct view in
  List.iter
    (fun (row, d) ->
      let old_m = Option.value (Vlmap.find_opt row view.v_out) ~default:0 in
      let new_m = old_m + d in
      if new_m < 0 then failwith "ivm: negative row multiplicity";
      if distinct then begin
        if old_m = 0 && new_m > 0 then added := (row, 1) :: !added
        else if old_m > 0 && new_m = 0 then removed := (row, 1) :: !removed
      end
      else if d > 0 then added := (row, d) :: !added
      else removed := (row, -d) :: !removed)
    net;
  (!added, !removed)

(* Degrades a view to engine re-execution for good.  A DISTINCT view's
   internal bag holds raw multiplicities: collapse it first, so the
   frames of the next re-execution diff against what subscribers saw. *)
let degrade view reason =
  if distinct view then view.v_out <- Vlmap.map (fun _ -> 1) view.v_out;
  view.v_state <- Fallback reason

(* The view's output replaced wholesale by [out]. *)
let replace_out ?table view out =
  refresh_result ?table ~incremental:false out
    (visible_deltas view (bag_diff ~old_bag:view.v_out ~new_bag:out))

let reexecute t g view =
  match Engine.query ~config:t.cfg ~mode:t.mode g view.v_query with
  | Ok outcome ->
    let tbl = outcome.Engine.table in
    replace_out ~table:tbl view (bag_of_table tbl)
  | Error e ->
    refresh_result ~error:(Engine.error_message e) ~incremental:false
      view.v_out ([], [])

let full_rebuild t g view =
  match view.v_state with
  | Incremental st -> (
    match init_istate t.cfg g st.plan with
    | fresh_st, events ->
      view.v_state <- Incremental fresh_st;
      replace_out view (bag_of_events events)
    | exception e ->
      (* the incremental machinery failed wholesale *)
      degrade view (Printexc.to_string e);
      reexecute t g view)
  | Fallback _ -> reexecute t g view

let compute_refresh t ~old_g ~new_g view =
  match view.v_state with
  | Fallback _ -> full_rebuild t new_g view
  | Incremental st -> (
    match Graph.delta_between ~since:old_g new_g with
    | None -> full_rebuild t new_g view
    | Some d -> (
      Registry.add m_delta_entities (Graph.delta_size d);
      if Graph.delta_is_empty d then
        refresh_result ?table:view.v_table ~incremental:true view.v_out
          ([], [])
      else
        (* a negative count in a group raises: rebuild from [new_g] *)
        match apply_delta t.cfg ~old_g ~new_g st d with
        | events ->
          let net = Vlmap.bindings (bag_of_events events) in
          refresh_result ~incremental:true
            (apply_events view.v_out net)
            (visible_deltas view net)
        | exception _ -> full_rebuild t new_g view))

(* Publishes a computed refresh under the manager mutex: swaps the
   result, stamps the seq, queues subscriber frames. *)
let publish_refresh t view seq ~trace r =
  Mutex.lock t.mm;
  view.v_out <- r.r_out;
  (match r.r_table with
  | Some tbl -> view.v_table <- Some tbl
  | None -> if r.r_added <> [] || r.r_removed <> [] then view.v_table <- None);
  view.v_seq <- seq;
  view.v_refreshes <- view.v_refreshes + 1;
  if r.r_incremental then view.v_incrementals <- view.v_incrementals + 1
  else view.v_fallbacks <- view.v_fallbacks + 1;
  view.v_error <- r.r_error;
  Registry.incr m_refreshes;
  if r.r_incremental then Registry.incr m_incremental
  else Registry.incr m_fallback;
  let rows_delta =
    List.fold_left (fun a (_, m) -> a + m) 0 r.r_added
    + List.fold_left (fun a (_, m) -> a + m) 0 r.r_removed
  in
  Registry.add m_delta_rows rows_delta;
  if r.r_added <> [] || r.r_removed <> [] then begin
    let frame =
      {
        f_view = view.v_name;
        f_seq = seq;
        f_columns = view.v_columns;
        f_init = false;
        f_added = r.r_added;
        f_removed = r.r_removed;
        f_trace = trace;
      }
    in
    List.iter
      (fun s ->
        if (not s.s_closed) && String.equal s.s_view view.v_name then
          if Queue.length s.s_frames >= max_queue then s.s_closed <- true
          else begin
            Queue.add frame s.s_frames;
            Registry.incr m_pushes
          end)
      t.subs
  end;
  Condition.broadcast t.cv;
  Mutex.unlock t.mm

let refresh_one t ~old_g ~new_g ~seq ?(trace = 0) view =
  let t0 = Cypher_obs.Clock.now_ns () in
  let r =
    (* [compute_refresh] aims never to raise, but its internal
       consistency checks (e.g. a negative row multiplicity in
       [visible_deltas]) surface as exceptions.  An escape here would
       kill the refresh thread with [t.busy] stuck, wedging every view:
       degrade this view to engine re-execution instead.  Its bag may be
       inconsistent at this point, so emit no delta frames; the next
       fallback refresh diffs the engine result against [v_out] and
       sends subscribers the correcting frames. *)
    match compute_refresh t ~old_g ~new_g view with
    | r -> r
    | exception e ->
      let msg = Printexc.to_string e in
      degrade view msg;
      refresh_result ~error:msg ~incremental:false view.v_out ([], [])
  in
  let dur_us = (Cypher_obs.Clock.now_ns () - t0) / 1000 in
  Registry.observe_us m_refresh_us dur_us;
  (* lineage: the refresh belongs to the trace of the write that
     published the version it consumed *)
  if trace <> 0 then
    Cypher_obs.Trace.note
      ~ctx:{ Cypher_obs.Trace.trace_id = trace; parent_span = 0 }
      ~attrs:
        [
          ("view", view.v_name);
          ("seq", string_of_int seq);
          ("incremental", if r.r_incremental then "true" else "false");
        ]
      "view_refresh" dur_us;
  publish_refresh t view seq ~trace r

(* One refresh cycle: drain the newest published version and bring every
   registered view to it. *)
let run_cycle t g seq trace =
  Mutex.lock t.mm;
  let old_g = t.last in
  let views = Hashtbl.fold (fun _ v acc -> v :: acc) t.views [] in
  Mutex.unlock t.mm;
  List.iter (fun v -> refresh_one t ~old_g ~new_g:g ~seq ~trace v) views

let refresh_loop t =
  Mutex.lock t.mm;
  while not t.stopping do
    match t.target with
    | None -> Condition.wait t.cv t.mm
    | Some (g, seq, trace) ->
      t.target <- None;
      t.busy <- true;
      Mutex.unlock t.mm;
      (* [refresh_one] is exception-proof, so [run_cycle] cannot raise in
         practice — but if it ever did, the thread must survive with
         [busy] reset, or quiesce/create_view/subscribe block forever *)
      (try run_cycle t g seq trace with _ -> ());
      Mutex.lock t.mm;
      t.last <- g;
      t.last_seq <- max t.last_seq seq;
      t.busy <- false;
      Condition.broadcast t.cv
  done;
  Mutex.unlock t.mm

(* Waiting.  Every change a waiter can wait for broadcasts [t.cv];
   [Condition] has no timed wait, so while some waiter has a deadline
   the ticker broadcasts every 2 ms for it to look at the clock. *)
let ticker t =
  Mutex.lock t.mm;
  while not t.stopping do
    if t.timed = 0 then Condition.wait t.cv t.mm
    else begin
      Mutex.unlock t.mm;
      Thread.delay 0.002;
      Mutex.lock t.mm;
      Condition.broadcast t.cv
    end
  done;
  Mutex.unlock t.mm

(* Under [t.mm]: waits until [ready ()], the [deadline] (a
   [Unix.gettimeofday] time) or shutdown. *)
let wait_until t deadline ready =
  if not (ready ()) && Unix.gettimeofday () < deadline then begin
    t.timed <- t.timed + 1;
    if t.timed = 1 then Condition.broadcast t.cv;
    while not (ready () || t.stopping || Unix.gettimeofday () >= deadline) do
      Condition.wait t.cv t.mm
    done;
    t.timed <- t.timed - 1
  end

(* --- lifecycle ---------------------------------------------------------- *)

let create ?(mode = Engine.Planned) graph seq =
  let t =
    {
      mm = Mutex.create ();
      cv = Condition.create ();
      views = Hashtbl.create 8;
      creating = [];
      subs = [];
      next_sub = 1;
      target = None;
      last = graph;
      last_seq = seq;
      busy = false;
      stopping = false;
      timed = 0;
      threads = [];
      source = None;
      cfg = Config.default;
      mode;
    }
  in
  t.threads <- [ Thread.create refresh_loop t; Thread.create ticker t ];
  t

let notify ?(trace = 0) t graph seq =
  Mutex.lock t.mm;
  if not t.stopping then begin
    t.target <- Some (graph, seq, trace);
    Condition.broadcast t.cv
  end;
  Mutex.unlock t.mm

let attach ?mode store =
  let g, seq = Store.committed_with_seq store in
  let t = create ?mode g seq in
  t.source <- Some store;
  Store.set_on_publish store (fun g seq trace -> notify ~trace t g seq);
  (* catch up with anything published between the two calls above *)
  let g, seq = Store.committed_with_seq store in
  notify t g seq;
  t

(* Blocks until no refresh is pending or in flight — the point where
   every view reflects every notification sent so far. *)
let quiesce t =
  Mutex.lock t.mm;
  while (t.target <> None || t.busy) && not t.stopping do
    Condition.wait t.cv t.mm
  done;
  Mutex.unlock t.mm

let shutdown t =
  (match t.source with Some s -> Store.clear_on_publish s | None -> ());
  Mutex.lock t.mm;
  t.stopping <- true;
  List.iter (fun s -> s.s_closed <- true) t.subs;
  Condition.broadcast t.cv;
  Mutex.unlock t.mm;
  List.iter Thread.join t.threads;
  t.threads <- []

(* --- registration ------------------------------------------------------- *)

let valid_name n =
  String.length n > 0
  && String.length n <= 128
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-' || c = '.' || c = '#')
       n

let create_view t ~name ~query ~auto =
  let refuse m = Error (Engine.Runtime_error m) in
  if not (valid_name name) then refuse "invalid view name"
  else begin
    Mutex.lock t.mm;
    if t.stopping then begin
      Mutex.unlock t.mm;
      refuse "the view manager is shut down"
    end
    else if Hashtbl.mem t.views name || List.mem name t.creating then begin
      Mutex.unlock t.mm;
      refuse (Printf.sprintf "view %s already exists" name)
    end
    else begin
      t.creating <- name :: t.creating;
      (* build against a stable frontier: wait out any in-flight cycle *)
      while t.busy && not t.stopping do
        Condition.wait t.cv t.mm
      done;
      let g0 = ref t.last and seq0 = ref t.last_seq in
      Mutex.unlock t.mm;
      let finish result =
        Mutex.lock t.mm;
        t.creating <- List.filter (fun n -> n <> name) t.creating;
        (match result with
        | Ok view -> Hashtbl.replace t.views name view
        | Error _ -> ());
        Registry.gauge_set m_views (Hashtbl.length t.views);
        Condition.broadcast t.cv;
        Mutex.unlock t.mm;
        Result.map (fun (v : view) -> v.v_seq) result
      in
      match Engine.classify query with
      | Engine.Update ->
        finish (refuse "only read-only queries can be materialized")
      | Engine.Read_only -> (
        match Engine.parse query with
        | Error e -> finish (Error e)
        | Ok ast -> (
          match Engine.query ~config:t.cfg ~mode:t.mode !g0 query with
          | Error e -> finish (Error e)
          | Ok outcome ->
            let tbl = outcome.Engine.table in
            let columns = Table.fields tbl in
            let engine_out = bag_of_table tbl in
            let state, out, table =
              match compile ast with
              | exception Unsupported reason ->
                (Fallback reason, engine_out, Some tbl)
              | exception e ->
                (Fallback (Printexc.to_string e), engine_out, Some tbl)
              | plan -> (
                match init_istate t.cfg !g0 plan with
                | exception e ->
                  (Fallback (Printexc.to_string e), engine_out, Some tbl)
                | st, events ->
                  let built = bag_of_events events in
                  (* self-check: the incremental build must reproduce the
                     engine's result exactly, or the view is not safe to
                     maintain incrementally.  A DISTINCT view keeps raw
                     multiplicities internally; what the engine returns is
                     the collapsed bag. *)
                  let visible =
                    if plan.p_distinct then Vlmap.map (fun _ -> 1) built
                    else built
                  in
                  if
                    List.sort String.compare (columns_of plan) = columns
                    && Vlmap.equal ( = ) visible engine_out
                  then (Incremental st, built, None)
                  else
                    ( Fallback "incremental self-check failed",
                      engine_out,
                      Some tbl ))
            in
            let view =
              {
                v_name = name;
                v_query = query;
                v_state = state;
                v_columns = columns;
                v_out = out;
                v_table = table;
                v_seq = !seq0;
                v_refreshes = 0;
                v_incrementals = 0;
                v_fallbacks = 0;
                v_error = None;
                v_auto = auto;
              }
            in
            (* Catch up if the frontier advanced while we were building,
               then register.  Registration must happen in the same
               critical section that verifies the view's base equals the
               frontier: unlocking in between would let the refresh loop
               run a full cycle (snapshotting the view table without this
               view) and advance [t.last], after which the next
               incremental refresh would skip the missed span. *)
            let rec catch_up () =
              Mutex.lock t.mm;
              if t.busy && not t.stopping then begin
                Condition.wait t.cv t.mm;
                Mutex.unlock t.mm;
                catch_up ()
              end
              else if t.last != !g0 && not t.stopping then begin
                let g1 = t.last and seq1 = t.last_seq in
                Mutex.unlock t.mm;
                refresh_one t ~old_g:!g0 ~new_g:g1 ~seq:seq1 view;
                g0 := g1;
                seq0 := seq1;
                catch_up ()
              end
              else begin
                (* no cycle in flight and the view reflects [t.last]
                   (or the manager is stopping): registering here, before
                   unlocking, means no refresh can start without it *)
                t.creating <- List.filter (fun n -> n <> name) t.creating;
                Hashtbl.replace t.views name view;
                Registry.gauge_set m_views (Hashtbl.length t.views);
                Condition.broadcast t.cv;
                Mutex.unlock t.mm
              end
            in
            catch_up ();
            Ok view.v_seq))
    end
  end

let materialize t ~name ~query = create_view t ~name ~query ~auto:false

let unmaterialize t name =
  Mutex.lock t.mm;
  let res =
    match Hashtbl.find_opt t.views name with
    | None ->
      Error (Engine.Runtime_error (Printf.sprintf "no view named %s" name))
    | Some _ ->
      Hashtbl.remove t.views name;
      List.iter
        (fun s -> if String.equal s.s_view name then s.s_closed <- true)
        t.subs;
      Registry.gauge_set m_views (Hashtbl.length t.views);
      Condition.broadcast t.cv;
      Ok ()
  in
  Mutex.unlock t.mm;
  res

let view_infos t =
  Mutex.lock t.mm;
  let infos =
    Hashtbl.fold
      (fun _ v acc ->
        let subs =
          List.length
            (List.filter
               (fun s -> (not s.s_closed) && String.equal s.s_view v.v_name)
               t.subs)
        in
        {
          vi_name = v.v_name;
          vi_query = v.v_query;
          vi_seq = v.v_seq;
          vi_rows =
            Vlmap.fold
              (fun _ m acc -> acc + if distinct v then 1 else m)
              v.v_out 0;
          vi_incremental =
            (match v.v_state with Incremental _ -> true | Fallback _ -> false);
          vi_refreshes = v.v_refreshes;
          vi_incrementals = v.v_incrementals;
          vi_fallbacks = v.v_fallbacks;
          vi_subscribers = subs;
          vi_error = v.v_error;
        }
        :: acc)
      t.views []
  in
  Mutex.unlock t.mm;
  List.sort (fun a b -> String.compare a.vi_name b.vi_name) infos

(* --- reads -------------------------------------------------------------- *)

type read_error =
  | Unknown_view
  | Stale of int  (* the view's current seq, below the requested floor *)
  | Failed of string

let read ?(min_seq = 0) ?(wait_ms = 0) t name =
  let deadline = Unix.gettimeofday () +. (float_of_int wait_ms /. 1000.) in
  Mutex.lock t.mm;
  let find () = Hashtbl.find_opt t.views name in
  wait_until t deadline (fun () ->
      match find () with Some v -> v.v_seq >= min_seq | None -> true);
  let res =
    match find () with
    | None -> Error Unknown_view
    | Some v when v.v_seq < min_seq -> Error (Stale v.v_seq)
    | Some v -> (
      match v.v_error with
      | Some e -> Error (Failed e)
      | None -> (
        (* table construction must not escape with [t.mm] held — a raise
           here would deadlock every manager entry point *)
        match build_table v with
        | tbl -> Ok (tbl, v.v_seq)
        | exception e -> Error (Failed (Printexc.to_string e))))
  in
  Mutex.unlock t.mm;
  res

(* --- subscriptions ------------------------------------------------------ *)

(* Subscribing to a query attaches to an existing view with the same
   text, or creates an anonymous one (dropped with its last
   subscriber).  The first frame is the full current result, flagged
   [f_init], stamped with the view's seq; every later frame carries the
   row deltas of one refresh, in seq order. *)
let subscribe t ~query =
  let existing =
    Mutex.lock t.mm;
    let found =
      Hashtbl.fold
        (fun _ v acc ->
          if acc = None && String.equal v.v_query query then Some v.v_name
          else acc)
        t.views None
    in
    Mutex.unlock t.mm;
    found
  in
  let viewname =
    match existing with
    | Some n -> Ok n
    | None ->
      let n =
        Mutex.lock t.mm;
        let id = t.next_sub in
        t.next_sub <- id + 1;
        Mutex.unlock t.mm;
        Printf.sprintf "#sub%d" id
      in
      Result.map (fun _ -> n) (create_view t ~name:n ~query ~auto:true)
  in
  match viewname with
  | Error e -> Error e
  | Ok name ->
    Mutex.lock t.mm;
    (* attach at a refresh boundary so the init frame and the delta
       stream tile exactly *)
    while t.busy && not t.stopping do
      Condition.wait t.cv t.mm
    done;
    (match Hashtbl.find_opt t.views name with
    | None ->
      Mutex.unlock t.mm;
      Error (Engine.Runtime_error "view dropped during subscribe")
    | Some v ->
      let id = t.next_sub in
      t.next_sub <- id + 1;
      let sub =
        { s_id = id; s_view = name; s_frames = Queue.create (); s_closed = false }
      in
      let initial =
        Vlmap.fold
          (fun row m acc -> (row, if distinct v then 1 else m) :: acc)
          v.v_out []
      in
      Queue.add
        {
          f_view = name;
          f_seq = v.v_seq;
          f_columns = v.v_columns;
          f_init = true;
          f_added = List.rev initial;
          f_removed = [];
          f_trace = 0;
        }
        sub.s_frames;
      t.subs <- sub :: t.subs;
      Registry.gauge_set m_subscribers (List.length t.subs);
      Mutex.unlock t.mm;
      Ok sub)

let unsubscribe t sub =
  Mutex.lock t.mm;
  sub.s_closed <- true;
  t.subs <- List.filter (fun s -> s.s_id <> sub.s_id) t.subs;
  Registry.gauge_set m_subscribers (List.length t.subs);
  (* an anonymous subscription-owned view dies with its last subscriber *)
  (match Hashtbl.find_opt t.views sub.s_view with
  | Some v
    when v.v_auto
         && not
              (List.exists
                 (fun s ->
                   (not s.s_closed) && String.equal s.s_view sub.s_view)
                 t.subs) ->
    Hashtbl.remove t.views sub.s_view;
    Registry.gauge_set m_views (Hashtbl.length t.views)
  | _ -> ());
  Condition.broadcast t.cv;
  Mutex.unlock t.mm

(* Blocking pull of the next frame, with a bounded wait.  [`Closed]
   means the subscription is over (unsubscribed, view dropped, manager
   stopping, or the subscriber fell too far behind). *)
let next_frame t sub ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  Mutex.lock t.mm;
  let over () = sub.s_closed || t.stopping in
  wait_until t deadline (fun () -> over () || not (Queue.is_empty sub.s_frames));
  let res =
    if not (Queue.is_empty sub.s_frames) then `Frame (Queue.pop sub.s_frames)
    else if over () then `Closed
    else `Timeout
  in
  Mutex.unlock t.mm;
  res

let subscription_view sub = sub.s_view

let view_count t =
  Mutex.lock t.mm;
  let n = Hashtbl.length t.views in
  Mutex.unlock t.mm;
  n

let last_refreshed_seq t =
  Mutex.lock t.mm;
  let s = t.last_seq in
  Mutex.unlock t.mm;
  s

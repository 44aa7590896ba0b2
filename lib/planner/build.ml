open Cypher_graph
open Cypher_ast
open Ast

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

type compiled = { plan : Plan.t; fields : string list; prog : Exec.program }

module Sset = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Naming                                                              *)
(* ------------------------------------------------------------------ *)

(* Internal variables start with '#', which the lexer cannot produce, so
   they can never collide with user variables.  Atomic, because queries
   are planned on several domains at once. *)
let counter = Atomic.make 0

let fresh prefix =
  Printf.sprintf "#%s%d" prefix (1 + Atomic.fetch_and_add counter 1)

(* A path pattern with every position named: node variables n0..nk and a
   relationship variable per hop. *)
type named_path = {
  orig : path_pattern;
  node_vars : string array; (* length k+1 *)
  rel_hops : (rel_pattern * string) array; (* length k *)
}

let name_path (pp : path_pattern) =
  if pp.pp_shortest <> No_shortest then
    unsupported
      "shortestPath inside a larger pattern is evaluated by the reference \
       engine";
  let node_var (np : node_pattern) =
    match np.np_name with Some a -> a | None -> fresh "node"
  in
  let node_vars =
    Array.of_list
      (node_var pp.pp_first :: List.map (fun (_, np) -> node_var np) pp.pp_rest)
  in
  let rel_hops =
    Array.of_list
      (List.map
         (fun ((rp : rel_pattern), _) ->
           let v = match rp.rp_name with Some a -> a | None -> fresh "rel" in
           (rp, v))
         pp.pp_rest)
  in
  { orig = pp; node_vars; rel_hops }

let hop_binding_of (rp : rel_pattern) var =
  match rp.rp_regex, rp.rp_len with
  | Some _, _ -> Plan.Rel_list var (* a regex hop always binds a list *)
  | None, None -> Plan.Single_rel var
  | None, Some _ -> Plan.Rel_list var

let node_patterns (pp : path_pattern) =
  Array.of_list (pp.pp_first :: List.map snd pp.pp_rest)

(* ------------------------------------------------------------------ *)
(* Cardinality estimation                                              *)
(* ------------------------------------------------------------------ *)

let start_cost stats bound (np : node_pattern) =
  match np.np_name with
  | Some a when Sset.mem a bound -> 0.5
  | _ -> (
    let indexed =
      List.exists
        (fun label ->
          List.exists
            (fun (key, _) -> Stats.has_index stats ~label ~key)
            np.np_props)
        np.np_labels
    in
    let base =
      match np.np_labels with
      | l :: _ -> Stats.label_cardinality stats l
      | [] -> Stats.node_count stats
    in
    let sel = if np.np_props <> [] then Stats.prop_selectivity stats else 1. in
    let cost = Float.max 1. (base *. sel) in
    if indexed then Float.max 1. (cost *. 0.1) else cost)

(* Cheapest starting position of a path pattern, as a node index: its
   left or right end. *)
let orientation_cost stats bound (nps : node_pattern array) =
  let k = Array.length nps - 1 in
  let left = start_cost stats bound nps.(0) in
  let right = start_cost stats bound nps.(k) in
  if left <= right then (0, left) else (k, right)

(* ------------------------------------------------------------------ *)
(* Predicates for node/relationship pattern constraints                *)
(* ------------------------------------------------------------------ *)

let conj = function
  | [] -> None
  | e :: rest -> Some (List.fold_left (fun acc e -> E_and (acc, e)) e rest)

let node_constraints ~skip_labels var (np : node_pattern) =
  let labels =
    match np.np_labels with
    | [] -> []
    | ls ->
      let ls = if skip_labels then List.tl ls else ls in
      if ls = [] then [] else [ E_has_labels (E_var var, ls) ]
  in
  let props =
    List.map (fun (k, e) -> E_cmp (Eq, E_prop (E_var var, k), e)) np.np_props
  in
  labels @ props

let rel_constraints (rp : rel_pattern) var =
  match rp.rp_len with
  | None ->
    List.map (fun (k, e) -> E_cmp (Eq, E_prop (E_var var, k), e)) rp.rp_props
  | Some _ ->
    (* every relationship of the variable-length hop must satisfy the
       property map *)
    List.map
      (fun (k, e) ->
        E_quantified
          (Q_all, "#r", E_var var, E_cmp (Eq, E_prop (E_var "#r", k), e)))
      rp.rp_props

let add_filters plan = function
  | [] -> plan
  | preds -> (
    match conj preds with
    | Some pred -> Plan.Filter { pred; input = plan }
    | None -> plan)

(* ------------------------------------------------------------------ *)
(* Compiling one path pattern                                          *)
(* ------------------------------------------------------------------ *)

let flip_dir = function
  | Left_to_right -> Right_to_left
  | Right_to_left -> Left_to_right
  | Undirected -> Undirected

let plan_dir = function
  | Left_to_right -> Plan.Out
  | Right_to_left -> Plan.In
  | Undirected -> Plan.Both

(* Produces the sequence (start node pattern, hops) in traversal order
   from node [j]: the hops left of it reversed, their directions flipped,
   then the hops right of it.  Each hop is (source node var, rel pattern,
   rel var, target node pattern, target node var, whether it runs
   against the written order). *)
let traversal named j =
  let nps = node_patterns named.orig and vars = named.node_vars in
  let hop i reversed =
    let rp, rv = named.rel_hops.(i) in
    if reversed then
      let rp = { rp with rp_dir = flip_dir rp.rp_dir } in
      (vars.(i + 1), rp, rv, nps.(i), vars.(i), true)
    else (vars.(i), rp, rv, nps.(i + 1), vars.(i + 1), false)
  in
  let k = Array.length named.rel_hops in
  ( (nps.(j), vars.(j)),
    List.init j (fun t -> hop (j - 1 - t) true)
    @ List.init (k - j) (fun t -> hop (j + t) false) )

let compile_start ~stats bound (np, var) input =
  if Sset.mem var bound then
    (* already bound: only check the remaining constraints *)
    add_filters input (node_constraints ~skip_labels:false var np)
  else
    (* prefer an index seek: a label with an indexed equality property
       whose value expression does not use the pattern's own variables *)
    let own = Sset.of_list (Ast.free_node_pattern np) in
    let indexed =
      List.find_map
        (fun label ->
          List.find_map
            (fun (key, value) ->
              if
                Stats.has_index stats ~label ~key
                && List.for_all
                     (fun v -> not (Sset.mem v own))
                     (Ast.expr_free_vars value)
              then Some (label, key, value)
              else None)
            np.np_props)
        np.np_labels
    in
    match indexed with
    | Some (label, key, value) ->
      let seek = Plan.Node_index_seek { var; label; key; value; input } in
      let remaining_props =
        List.filter (fun (k, _) -> not (String.equal k key)) np.np_props
      in
      let remaining_labels =
        List.filter (fun l -> not (String.equal l label)) np.np_labels
      in
      add_filters seek
        (node_constraints ~skip_labels:false var
           { np with np_props = remaining_props; np_labels = remaining_labels })
    | None -> (
      match np.np_labels with
      | l :: _ ->
        let scan = Plan.Node_by_label_scan { var; label = l; input } in
        add_filters scan (node_constraints ~skip_labels:true var np)
      | [] ->
        let scan = Plan.All_nodes_scan { var; input } in
        add_filters scan (node_constraints ~skip_labels:false var np))

let compile_hop ~scan_rels (from_var, rp, rel_var, np, node_var, reversed) input =
  let dir = plan_dir rp.rp_dir in
  match rp.rp_regex with
  | Some regex ->
    (* RPQ hop: the NFA runs on the product graph inside the operator;
       relationship property maps quantify over the traversed list, as
       for a variable-length hop *)
    let expand =
      Plan.Regex_expand
        { from_ = from_var; rel = rel_var; regex; dir; to_ = node_var; input }
    in
    let rel_props =
      List.map
        (fun (k, e) ->
          E_quantified
            (Q_all, "#r", E_var rel_var, E_cmp (Eq, E_prop (E_var "#r", k), e)))
        rp.rp_props
    in
    add_filters expand
      (node_constraints ~skip_labels:false node_var np @ rel_props)
  | None ->
  let expand =
    match rp.rp_len with
    | None ->
      Plan.Expand
        {
          from_ = from_var;
          rel = rel_var;
          types = rp.rp_types;
          dir;
          to_ = node_var;
          scan_rels;
          input;
        }
    | Some len ->
      let min_len, max_len = Ast.range_of_len (Some len) in
      Plan.Var_expand
        {
          from_ = from_var;
          rel = rel_var;
          types = rp.rp_types;
          dir;
          min_len;
          max_len;
          to_ = node_var;
          reversed;
          input;
        }
  in
  add_filters expand
    (node_constraints ~skip_labels:false node_var np @ rel_constraints rp rel_var)

let compile_path ~stats ~scan_rels bound named input =
  let k = Array.length named.rel_hops in
  let start =
    (* a regex hop reads its labels left to right; traversing it from the
       right would need the reversed automaton, so keep the written
       orientation.  Otherwise a bound node is the start, an end before
       an interior node, and the estimate picks an end only when none is
       bound. *)
    if Array.exists (fun (rp, _) -> rp.rp_regex <> None) named.rel_hops then 0
    else
      match
        List.find_opt
          (fun i -> Sset.mem named.node_vars.(i) bound)
          (0 :: k :: List.init (max 0 (k - 1)) succ)
      with
      | Some j -> j
      | None -> fst (orientation_cost stats bound (node_patterns named.orig))
  in
  let (start_np, start_var), hops = traversal named start in
  (* if the pattern has no anchor at all but the first hop has a typed
     rigid relationship, a relationship-type scan is the cheapest leaf *)
  let type_total types =
    List.fold_left
      (fun acc t -> acc +. (Stats.rel_count stats *. Stats.type_selectivity stats t))
      0. types
  in
  let plan, remaining_hops =
    match hops with
    | (_, rp, rel_var, np, node_var, _) :: rest
      when (not scan_rels)
           && (not (Sset.mem start_var bound))
           && start_np.np_labels = [] && start_np.np_props = []
           && rp.rp_len = None && rp.rp_regex = None && rp.rp_types <> []
           && type_total rp.rp_types < Stats.node_count stats ->
      let scan =
        Plan.Rel_type_scan
          {
            rel = rel_var;
            types = rp.rp_types;
            from_ = start_var;
            to_ = node_var;
            dir = plan_dir rp.rp_dir;
            input;
          }
      in
      ( add_filters scan
          (node_constraints ~skip_labels:false node_var np
          @ rel_constraints rp rel_var),
        rest )
    | _ -> (compile_start ~stats bound (start_np, start_var) input, hops)
  in
  let plan =
    List.fold_left
      (fun plan hop -> compile_hop ~scan_rels hop plan)
      plan remaining_hops
  in
  (* GQL restrictor: filter on the reconstructed steps, in the original
     left-to-right orientation *)
  let plan =
    if named.orig.pp_restr = Walk then plan
    else
      Plan.Path_restrict
        {
          restr = named.orig.pp_restr;
          start_var = named.node_vars.(0);
          hops =
            List.map
              (fun (rp, rv) -> hop_binding_of rp rv)
              (Array.to_list named.rel_hops);
          input = plan;
        }
  in
  (* named path projection, in the original left-to-right orientation *)
  let plan =
    match named.orig.pp_name with
    | None -> plan
    | Some path_var ->
      Plan.Project_path
        {
          var = path_var;
          start_var = named.node_vars.(0);
          hops =
            List.map
              (fun (rp, rv) -> hop_binding_of rp rv)
              (Array.to_list named.rel_hops);
          input = plan;
        }
  in
  let bound =
    Array.fold_left (fun b v -> Sset.add v b) bound named.node_vars
  in
  let bound =
    Array.fold_left (fun b (_, v) -> Sset.add v b) bound named.rel_hops
  in
  let bound =
    match named.orig.pp_name with Some a -> Sset.add a bound | None -> bound
  in
  (plan, bound)

(* ------------------------------------------------------------------ *)
(* Compiling a shortestPath / allShortestPaths / cheapestPath pattern  *)
(* ------------------------------------------------------------------ *)

(* Both endpoints are compiled as ordinary starts (index seek, label
   scan, bound-variable check), in the reference engine's order — the
   start node first, then the end node — so every property expression
   sees the same bindings.  The search itself runs in the dedicated
   operator.  Anything needing the reference engine's deferred property
   checks (an expression referencing a variable the search itself binds)
   is left to the fallback. *)
let compile_shortest ~stats bound (pp : path_pattern) input =
  let rp, np_end =
    match pp.pp_rest with
    | [ seg ] -> seg
    | segs ->
      unsupported
        "shortestPath over %d relationship segments is evaluated by the \
         reference engine"
        (List.length segs)
  in
  if rp.rp_regex <> None then
    unsupported
      "shortestPath over a type regex is evaluated by the reference engine";
  let start_var =
    match pp.pp_first.np_name with Some a -> a | None -> fresh "node"
  in
  let end_var = match np_end.np_name with Some a -> a | None -> fresh "node" in
  let rel_var = match rp.rp_name with Some a -> a | None -> fresh "rel" in
  let internal =
    (match rp.rp_name with Some a -> [ a ] | None -> [])
    @ match pp.pp_name with Some a -> [ a ] | None -> []
  in
  List.iter
    (fun v ->
      if Sset.mem v bound then
        unsupported
          "a rebound shortest-path variable is evaluated by the reference \
           engine")
    internal;
  let refs props = List.concat_map (fun (_, e) -> Ast.expr_free_vars e) props in
  let end_name = match np_end.np_name with Some a -> [ a ] | None -> [] in
  if
    List.exists
      (fun v -> List.mem v (internal @ end_name))
      (refs pp.pp_first.np_props)
    || List.exists (fun v -> List.mem v internal) (refs np_end.np_props)
  then
    unsupported
      "shortest-path endpoint properties referencing variables the search \
       binds are evaluated by the reference engine";
  let plan = compile_start ~stats bound (pp.pp_first, start_var) input in
  let bound = Sset.add start_var bound in
  let plan = compile_start ~stats bound (np_end, end_var) plan in
  let bound = Sset.add end_var bound in
  let min_len, max_len = Ast.range_of_len rp.rp_len in
  let dir = plan_dir rp.rp_dir in
  let plan =
    match pp.pp_shortest with
    | Cheapest cost_prop ->
      if rp.rp_len = None || min_len > 1 || max_len <> None then
        (* the reference engine owns the typed error message *)
        unsupported
          "cheapestPath over a bounded pattern is evaluated by the reference \
           engine";
      Plan.Cheapest_path
        {
          from_ = start_var;
          to_ = end_var;
          rel = rel_var;
          types = rp.rp_types;
          dir;
          props = rp.rp_props;
          cost_prop;
          restr = pp.pp_restr;
          path = pp.pp_name;
          input = plan;
        }
    | Shortest | All_shortest ->
      Plan.Shortest_path
        {
          from_ = start_var;
          to_ = end_var;
          rel = rel_var;
          rel_single = (rp.rp_len = None);
          types = rp.rp_types;
          dir;
          props = rp.rp_props;
          min_len;
          max_len;
          all = (pp.pp_shortest = All_shortest);
          restr = pp.pp_restr;
          path = pp.pp_name;
          input = plan;
        }
    | No_shortest -> assert false
  in
  let bound = Sset.add rel_var bound in
  let bound =
    match pp.pp_name with Some a -> Sset.add a bound | None -> bound
  in
  (plan, bound)

(* ------------------------------------------------------------------ *)
(* Compiling a pattern tuple (one MATCH)                               *)
(* ------------------------------------------------------------------ *)

let pattern_vars named =
  Sset.union
    (Sset.of_list (Array.to_list named.node_vars))
    (Sset.of_list (List.map snd (Array.to_list named.rel_hops)))

(* A tuple with one shortest-path pattern compiles when every other
   pattern is a bare node: then the tuple-wide relationship-uniqueness
   state is empty during the search and the operator's result is exactly
   the reference engine's.  Relationship hops elsewhere in the tuple
   would have to feed their used-relationship set into the search (they
   change *which* path is shortest, not just filter it), so those fall
   back. *)
let compile_tuple_with_shortest ~stats bound sp plain input =
  if List.exists (fun (pp : path_pattern) -> pp.pp_rest <> []) plain then
    unsupported
      "shortestPath alongside other relationship patterns is evaluated by \
       the reference engine";
  let sp_names = Sset.of_list (Ast.free_path_pattern sp) in
  let plain_own = Sset.of_list (List.concat_map Ast.free_path_pattern plain) in
  List.iter
    (fun (pp : path_pattern) ->
      List.iter
        (fun (_, e) ->
          List.iter
            (fun v ->
              if
                Sset.mem v sp_names
                && (not (Sset.mem v plain_own))
                && not (Sset.mem v bound)
              then
                unsupported
                  "pattern properties referencing a shortest-path variable \
                   are evaluated by the reference engine")
            (Ast.expr_free_vars e))
        pp.pp_first.np_props)
    plain;
  (* the node-only patterns first, in written order, then the search *)
  let plan, bound =
    List.fold_left
      (fun (plan, bound) pp ->
        compile_path ~stats ~scan_rels:false bound (name_path pp) plan)
      (input, bound) plain
  in
  compile_shortest ~stats bound sp plan

let compile_pattern_tuple ~stats ~scan_rels ?(ordering = `Greedy) bound
    patterns input =
  match
    List.partition
      (fun (pp : path_pattern) -> pp.pp_shortest <> No_shortest)
      patterns
  with
  | [ sp ], plain when not scan_rels ->
    compile_tuple_with_shortest ~stats bound sp plain input
  | _ :: _ :: _, _ ->
    unsupported
      "multiple shortest-path patterns in one MATCH are evaluated by the \
       reference engine"
  | _ ->
  let named = List.map name_path patterns in
  (* greedy ordering: repeatedly pick the pattern with the cheapest start
     given what is bound so far (connected patterns get cost 0.5 via a
     bound endpoint); `Textual keeps the written order and is used by the
     ablation benchmark *)
  let rec order bound acc remaining =
    match remaining with
    | [] -> List.rev acc
    | _ ->
      let scored =
        List.map
          (fun np ->
            (snd (orientation_cost stats bound (node_patterns np.orig)), np))
          remaining
      in
      let best =
        List.fold_left
          (fun (bc, bn) (c, n) -> if c < bc then (c, n) else (bc, bn))
          (List.hd scored) (List.tl scored)
      in
      let _, chosen = best in
      let rest = List.filter (fun np -> np != chosen) remaining in
      order (Sset.union bound (pattern_vars chosen)) (chosen :: acc) rest
  in
  let ordered = match ordering with `Greedy -> order bound [] named | `Textual -> named in
  let plan, bound =
    List.fold_left
      (fun (plan, bound) np -> compile_path ~stats ~scan_rels bound np plan)
      (input, bound) ordered
  in
  (* relationship isomorphism across the whole MATCH *)
  let all_hops =
    List.concat_map
      (fun np ->
        List.map
          (fun (rp, rv) -> hop_binding_of rp rv)
          (Array.to_list np.rel_hops))
      named
  in
  let plan =
    if List.length all_hops > 1 then
      Plan.Rel_uniqueness { vars = all_hops; input = plan }
    else plan
  in
  (plan, bound)

(* ------------------------------------------------------------------ *)
(* Projections                                                         *)
(* ------------------------------------------------------------------ *)

let expand_star proj visible =
  if not proj.pj_star then proj.pj_items
  else
    List.map (fun v -> { ri_expr = E_var v; ri_alias = Some v }) visible
    @ proj.pj_items

let item_name = Cypher_semantics.Clauses.item_name

let compile_projection proj visible input =
  let items = expand_star proj visible in
  if items = [] then unsupported "projection with no columns";
  let names = List.map item_name items in
  let aggregating =
    List.exists
      (fun i -> Cypher_semantics.Agg.contains_aggregate i.ri_expr)
      items
  in
  (* ORDER BY: rewrite against the items, then decide whether the sort
     can run above the projection or needs source columns passed
     through. *)
  let order_by =
    List.map
      (fun (e, d) ->
        ( Cypher_semantics.Clauses.rewrite_order_expr items names e,
          match d with Asc -> Plan.Asc | Desc -> Plan.Desc ))
      proj.pj_order_by
  in
  let extras =
    List.sort_uniq String.compare
      (List.concat_map (fun (e, _) -> Ast.expr_free_vars e) order_by)
    |> List.filter (fun v -> not (List.mem v names))
  in
  if extras <> [] && (aggregating || proj.pj_distinct) then
    unsupported
      "ORDER BY on non-projected variables combined with aggregation or \
       DISTINCT";
  List.iter
    (fun (e, _) ->
      if Cypher_semantics.Agg.contains_aggregate e then
        unsupported "ORDER BY with an aggregate that is not a projected item")
    order_by;
  let plan =
    if not aggregating then
      Plan.Project
        {
          items =
            List.map (fun i -> (item_name i, i.ri_expr)) items
            @ List.map (fun v -> (v, E_var v)) extras;
          input;
        }
    else begin
      let keys =
        List.filter_map
          (fun i ->
            if Cypher_semantics.Agg.contains_aggregate i.ri_expr then None
            else Some (item_name i, i.ri_expr))
          items
      in
      let aggs = ref [] in
      let out_items =
        List.map
          (fun i ->
            if Cypher_semantics.Agg.contains_aggregate i.ri_expr then begin
              let rewritten, specs =
                Cypher_semantics.Agg.extract_aggregates i.ri_expr
              in
              aggs := !aggs @ specs;
              (item_name i, rewritten)
            end
            else (item_name i, E_var (item_name i)))
          items
      in
      let agg_plan = Plan.Aggregate { keys; aggs = !aggs; input } in
      Plan.Project { items = out_items; input = agg_plan }
    end
  in
  let plan = if proj.pj_distinct then Plan.Distinct { input = plan } else plan in
  let plan =
    if order_by = [] then plan else Plan.Sort { by = order_by; input = plan }
  in
  let plan =
    (* drop the ORDER BY passthrough columns *)
    if extras = [] then plan
    else
      Plan.Project
        { items = List.map (fun n -> (n, E_var n)) names; input = plan }
  in
  let plan =
    match proj.pj_skip with
    | Some e -> Plan.Skip_rows { count = e; input = plan }
    | None -> plan
  in
  let plan =
    match proj.pj_limit with
    | Some e -> Plan.Limit_rows { count = e; input = plan }
    | None -> plan
  in
  (plan, names)

(* ------------------------------------------------------------------ *)
(* Clauses                                                             *)
(* ------------------------------------------------------------------ *)

let compile_clauses ~stats ?(scan_rels = false) ?(ordering = `Greedy) ~visible
    clauses ret =
  let compiled plan fields =
    { plan; fields; prog = Exec.compile ~input:visible plan }
  in
  let rec go plan bound visible = function
    | [] -> (
      match ret with
      | Some proj ->
        let plan, names = compile_projection proj visible plan in
        compiled plan names
      | None ->
        (* end of a read segment feeding an update clause: project to the
           user-visible fields so internals do not leak *)
        let items = List.map (fun v -> (v, E_var v)) visible in
        let plan =
          if
            Sset.equal (Sset.of_list visible) bound
          then plan
          else Plan.Project { items; input = plan }
        in
        compiled plan visible)
    | C_match { opt = false; pattern; where } :: rest ->
      let plan, bound =
        compile_pattern_tuple ~stats ~scan_rels ~ordering bound pattern plan
      in
      let plan =
        match where with
        | Some pred -> Plan.Filter { pred; input = plan }
        | None -> plan
      in
      let visible =
        List.sort_uniq String.compare (visible @ Ast.free_pattern_tuple pattern)
      in
      go plan bound visible rest
    | C_match { opt = true; pattern; where } :: rest ->
      let inner, inner_bound =
        compile_pattern_tuple ~stats ~scan_rels ~ordering bound pattern
          Plan.Argument
      in
      let inner =
        match where with
        | Some pred -> Plan.Filter { pred; input = inner }
        | None -> inner
      in
      let introduced =
        List.filter
          (fun a -> not (Sset.mem a bound))
          (Ast.free_pattern_tuple pattern)
      in
      let plan = Plan.Optional { inner; introduced; input = plan } in
      let visible = List.sort_uniq String.compare (visible @ introduced) in
      go plan (Sset.union bound inner_bound) visible rest
    | C_with { proj; where } :: rest ->
      let plan, names = compile_projection proj visible plan in
      let plan =
        match where with
        | Some pred -> Plan.Filter { pred; input = plan }
        | None -> plan
      in
      go plan (Sset.of_list names) names rest
    | C_unwind (e, a) :: rest ->
      let plan = Plan.Unwind { expr = e; var = a; input = plan } in
      go plan (Sset.add a bound)
        (List.sort_uniq String.compare (a :: visible))
        rest
    | (C_create _ | C_delete _ | C_set _ | C_remove _ | C_merge _ | C_call _
      | C_foreach _)
      :: _ ->
      unsupported "update and CALL clauses are executed by the reference engine"
  in
  go Plan.Argument (Sset.of_list visible) visible clauses
